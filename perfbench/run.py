#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload setalg|point|serve --seed N \
        --seconds S --trace 0|1

The library and the benchmark program are built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs only rebuild what changed. The program's output is passed
through, and its last line -- the result JSON -- is checked against the
metric names and units in BENCHMARK.json before it is printed again as the
last line of standard output.

Exit status: 0 when every answer was right; 1 on a wrong answer (the
result line is still printed, with "correct": false) or on any failure to
build, run or produce a complete result (no result line then).

--tiny (small inputs) and --corrupt (feed one wrong answer to the oracle)
exist for perfbench/selftest.py.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """(name -> unit) the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, trace):
    """Problems with a parsed result line; an empty list when it is whole."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"BENCHMARK.json says {unit}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["setalg", "point", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"no result line (exit {proc.returncode})")
        return 1
    problems = validate(result, args.trace)
    if problems:
        for p in problems:
            log(p)
        return 1
    if proc.returncode not in (0, 1) or \
            (proc.returncode == 1) == bool(result["correct"]):
        log(f"benchmark exit {proc.returncode} disagrees with its result")
        return 1
    print(f"run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
