#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py at tiny size,
untraced and traced, and asserts that every metric BENCHMARK.json names is
emitted, finite and carries its unit, and that the run's answers were all
right. It then runs each workload with --corrupt, which feeds one wrong
answer to the oracle, and asserts that the run reports it ("correct":
false, failed >= 1) and exits non-zero. Finally it asserts that the
benchmark fails without printing a result when the library sources are
absent (a directory holding only BENCHMARK.json and the benchmark).
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict) or "correct" not in result:
            result = None
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, res = run(w, trace)
            tag = f"{w} trace={trace}"
            expect(proc.returncode == 0 and res is not None,
                   f"{tag}: exits 0 with a result line")
            if res is None:
                print(proc.stderr[-2000:])
                continue
            expect(res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{tag}: all {res['attempted']} checked ops right")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                expect(got is not None
                       and isinstance(got.get("value"), (int, float))
                       and math.isfinite(got["value"])
                       and got.get("unit") == m["unit"],
                       f"{tag}: {m['name']} emitted, finite, in {m['unit']}")
        proc, res = run(w, 0, "--corrupt")
        expect(proc.returncode != 0 and res is not None
               and res["correct"] is False and res["failed"] >= 1,
               f"{w}: a corrupted answer is caught by the oracle")

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")
                                     if os.path.isdir(os.path.join(
                                         ROOT, ".bench_build")) else None) \
            as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env_dir = os.path.join(bare, ".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "point",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={**os.environ, "CARGO_TARGET_DIR": env_dir})
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the library sources: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
