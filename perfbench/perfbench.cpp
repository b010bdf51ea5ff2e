//===- perfbench.cpp - End-to-end benchmark of the PaC-tree library -------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// One process runs one workload:
//
//   setalg  bulk functional set algebra on two diff-encoded B=128
//           pam_map<uint64_t, uint64_t> operands (build, union, skewed
//           union, intersect, difference, clustered multi_insert, filter,
//           map_reduce). Merge kernels, encoder cursors, pool and
//           scheduler do the work; serving does none.
//   point   closed loop of 2 foreign client threads on a raw-encoded B=128
//           sum-augmented aug_map of 2^16 keys: 80% reads (find, aug_range,
//           short range) on random retained versions, 20% functional
//           insert/remove. The scheduler is bypassed and raw decode is a
//           memcpy, so scheduler or encoder changes should not move it.
//   serve   read-while-ingest: an open-loop producer feeds rMAT edges to a
//           serving::ingest_pipeline over a sym_graph (diff-encoded B=64
//           edge trees) at fixed offered rates while one closed-loop reader
//           acquires snapshots and runs 2-hop queries.
//
// Every workload reports the same end-to-end metric names (see
// perfbench/README.md for what each means per workload). All timing is
// taken from outside the library: the benchmark times and spans its own
// calls into each layer's public functions and reads the library's own
// counters (scheduler stats, pool stats, alloc_stats, ingest stats).
// Outputs are checked against oracles outside the timed regions.
//
// Usage:
//   perfbench --workload setalg|point|serve --seed N --seconds S
//             --trace 0|1 [--tiny] [--corrupt] [--trace-out FILE]
//
// The last line of standard output is the result JSON; the line before it
// is the run configuration. Exit status is 1 when any answer was wrong.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/api/aug_map.h"
#include "src/api/pam_map.h"
#include "src/core/allocator.h"
#include "src/core/pool_allocator.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/raw_encoder.h"
#include "src/graph/graph.h"
#include "src/obs/metrics.h"
#include "src/parallel/random.h"
#include "src/parallel/scheduler.h"
#include "src/serving/version_chain.h"
#include "src/util/datagen.h"
#include "src/util/failpoint.h"

using namespace cpam;

namespace {

//===----------------------------------------------------------------------===//
// Clocks, resources, statistics.
//===----------------------------------------------------------------------===//

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return T.tv_sec + T.tv_nsec * 1e-9;
}

double peak_rss_mb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports KiB.
}

/// The \p N highest-numbered CPUs this process may run on, or none when it
/// may not use more than N.
std::vector<int> last_cpus(int N) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0 || CPU_COUNT(&Set) <= N)
    return {};
  std::vector<int> Out;
  for (int C = CPU_SETSIZE - 1; C >= 0 && static_cast<int>(Out.size()) < N;
       --C)
    if (CPU_ISSET(C, &Set))
      Out.push_back(C);
  return Out;
}

/// Pins the calling thread to \p Cpu (best effort: on failure the thread
/// stays unpinned).
void pin_to_cpu(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

/// Nearest-rank percentile \p P (0..100] of [B, E) (reorders the range).
template <class It> double pct(It B, It E, double P) {
  const size_t N = static_cast<size_t>(E - B);
  if (N == 0)
    return std::nan("");
  size_t K = static_cast<size_t>(std::ceil(P / 100.0 * N));
  K = std::clamp<size_t>(K, 1, N);
  std::nth_element(B, B + (K - 1), E);
  return static_cast<double>(B[K - 1]);
}
template <class T> double pct(std::vector<T> &V, double P) {
  return pct(V.begin(), V.end(), P);
}

double median(std::vector<double> V) { return pct(V, 50); }

/// True when \p N samples leave at least 10 beyond percentile \p P.
bool supports(size_t N, double P) { return N * (100.0 - P) / 100.0 >= 10.0; }

/// Percentile over windows a windowed figure is taken at: 0, the quietest
/// window. Other tenants of the shared VM slow it in stretches of a fraction
/// of a second to minutes, and a run's median or even 10th-percentile
/// window moves with how much of the run they covered. Its quietest window
/// moves much less, as long as the run has one quiet stretch, while a
/// slower library slows every window.
constexpr double kQuietWindowPct = 0;

/// Latency samples cut into fixed time windows; each window contributes its
/// own p50 and tail percentile, and the run reports each at its quietest
/// window (kQuietWindowPct). Sample storage is allocated and touched up
/// front, so the process's memory does not depend on how fast it ran;
/// samples beyond \p Cap in one window are counted but not kept.
class windowed {
public:
  windowed(double TailP, size_t Cap) : TailP(TailP), Cur(Cap, 0) {}
  void add(uint64_t Ns) {
    if (N < Cur.size())
      Cur[N] = static_cast<uint32_t>(std::min<uint64_t>(Ns, UINT32_MAX));
    ++N;
  }
  void roll() {
    Total += N;
    const size_t Kept = std::min(N, Cur.size());
    if (supports(Kept, TailP)) {
      P50s.push_back(pct(Cur.begin(), Cur.begin() + Kept, 50));
      Tails.push_back(pct(Cur.begin(), Cur.begin() + Kept, TailP));
    }
    N = 0;
  }
  /// Merges another thread's windows into this one.
  void absorb(const windowed &O) {
    P50s.insert(P50s.end(), O.P50s.begin(), O.P50s.end());
    Tails.insert(Tails.end(), O.Tails.begin(), O.Tails.end());
    Total += O.Total;
  }
  double p50() const { return quiet(P50s); }
  double tail() const { return quiet(Tails); }
  size_t samples() const { return Total; }
  size_t windows() const { return P50s.size(); }

private:
  static double quiet(std::vector<double> V) {
    return V.empty() ? 0 : pct(V, kQuietWindowPct);
  }

  double TailP;
  std::vector<uint32_t> Cur;
  size_t N = 0;
  std::vector<double> P50s, Tails;
  size_t Total = 0;
};

//===----------------------------------------------------------------------===//
// Tracing: spans recorded by this file around its calls into each layer.
//===----------------------------------------------------------------------===//

/// The layers this file wraps in spans. alloc and parallel are measured
/// through their own counters (pool stats, scheduler stats) instead.
enum layer : int { kApi, kCore, kEncoding, kServing, kGraph, kNumLayers };
const char *const kLayerNames[kNumLayers] = {"api", "core", "encoding",
                                             "serving", "graph"};

namespace trace {

/// Whether new spans record. Toggled by the workload loop so a traced run
/// alternates traced and untraced stretches of the same work.
std::atomic<bool> On{false};
std::atomic<uint64_t> SelfNs[kNumLayers];
std::atomic<uint64_t> NextId{1};

struct record {
  const char *Name;
  uint64_t Id, Parent, Request, T0, T1;
  int Layer, Thread;
};

constexpr size_t kMaxRecordsPerThread = 1 << 16;

struct thread_buf {
  std::vector<record> Records;
  int Thread = 0;
};
std::mutex BufsM;
std::vector<std::unique_ptr<thread_buf>> Bufs;

struct thread_state {
  static constexpr int kMaxDepth = 32;
  uint64_t ChildNs[kMaxDepth];
  uint64_t Ids[kMaxDepth];
  int Depth = 0;
  uint64_t Request = 0;
  thread_buf *Buf = nullptr;
};
thread_local thread_state TS;

thread_buf &my_buf() {
  if (!TS.Buf) {
    std::lock_guard<std::mutex> L(BufsM);
    Bufs.push_back(std::make_unique<thread_buf>());
    Bufs.back()->Thread = static_cast<int>(Bufs.size());
    Bufs.back()->Records.reserve(1024);
    TS.Buf = Bufs.back().get();
  }
  return *TS.Buf;
}

/// Spans of one request share this id (a setalg round, one point op, one
/// serve query or ingest batch).
void begin_request() { TS.Request = NextId.fetch_add(1); }

/// A span around one call into \p Layer. A layer's self time is its spans'
/// durations minus the part covered by nested spans.
class span {
public:
  span(int Layer, const char *Name)
      : Layer(Layer), Name(Name), Active(On.load(std::memory_order_relaxed) &&
                                         TS.Depth < thread_state::kMaxDepth) {
    if (!Active)
      return;
    Id = NextId.fetch_add(1, std::memory_order_relaxed);
    TS.ChildNs[TS.Depth] = 0;
    TS.Ids[TS.Depth] = Id;
    ++TS.Depth;
    T0 = now_ns();
  }
  ~span() {
    if (!Active)
      return;
    uint64_t T1 = now_ns(), D = T1 - T0;
    --TS.Depth;
    uint64_t Self = D - std::min(D, TS.ChildNs[TS.Depth]);
    uint64_t Parent = 0;
    if (TS.Depth > 0) {
      TS.ChildNs[TS.Depth - 1] += D;
      Parent = TS.Ids[TS.Depth - 1];
    }
    SelfNs[Layer].fetch_add(Self, std::memory_order_relaxed);
    thread_buf &B = my_buf();
    if (B.Records.size() < kMaxRecordsPerThread)
      B.Records.push_back(
          {Name, Id, Parent, TS.Request, T0, T1, Layer, B.Thread});
  }
  span(const span &) = delete;
  span &operator=(const span &) = delete;

private:
  int Layer;
  const char *Name;
  bool Active;
  uint64_t Id = 0, T0 = 0;
};

/// Writes the recorded spans as a Chrome/Perfetto trace-event JSON file.
void write_file(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "{\"traceEvents\": [\n");
  bool First = true;
  std::lock_guard<std::mutex> L(BufsM);
  for (const auto &B : Bufs)
    for (const record &R : B->Records) {
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, "
                   "\"request\": %llu}}",
                   First ? "" : ",\n", R.Name, kLayerNames[R.Layer],
                   R.T0 / 1e3, (R.T1 - R.T0) / 1e3, R.Thread,
                   static_cast<unsigned long long>(R.Id),
                   static_cast<unsigned long long>(R.Parent),
                   static_cast<unsigned long long>(R.Request));
      First = false;
    }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

} // namespace trace

/// Times \p f under a span; returns nanoseconds. The span's own cost is
/// inside the timed interval, so traced runs show what tracing costs.
template <class F> uint64_t timed(int Layer, const char *Name, F &&f) {
  uint64_t T0 = now_ns();
  {
    trace::span S(Layer, Name);
    f();
  }
  return now_ns() - T0;
}

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

struct metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

struct result {
  std::vector<metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< Wrong answers plus ops that missed a limit.
  uint64_t Wrong = 0;  ///< Answers the oracle rejected.
  std::vector<std::string> Errors;
  std::string WorkloadConfig; // JSON object body.

  void add(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Note = "") {
    Metrics.push_back({Name, Value, Unit, Note});
  }
  /// Counts one checked operation; \p Ok false records a failure, which
  /// is a wrong answer unless \p WrongAnswer is false (a refused op or a
  /// missed latency limit).
  void check(bool Ok, const char *What, bool WrongAnswer = true) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      Wrong += WrongAnswer;
      if (Errors.size() < 20)
        Errors.push_back(What);
    }
  }
};

struct options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool Corrupt = false;
  std::string TraceOut;
};

/// Process-wide facts for the cold-start metrics: the first parallel op of
/// the process, timed in wall and CPU time.
struct cold_start {
  double OpMs = 0;
  double CpuPerWall = 0;
  bool Done = false;
};
cold_start Cold;

/// Runs \p f, recording it as the process's cold op if none ran yet.
template <class F> void maybe_cold(F &&f) {
  if (Cold.Done) {
    f();
    return;
  }
  double C0 = cpu_seconds();
  uint64_t T0 = now_ns();
  f();
  double Wall = (now_ns() - T0) * 1e-9;
  Cold.OpMs = Wall * 1e3;
  Cold.CpuPerWall = Wall > 0 ? (cpu_seconds() - C0) / Wall : 0;
  Cold.Done = true;
}

struct pool_totals {
  uint64_t Allocs = 0, Refills = 0, Carves = 0;
};
pool_totals pool_now() {
  pool_totals T;
  for (const auto &C : pool_allocator::stats()) {
    T.Allocs += C.Allocs;
    T.Refills += C.RefillBatches;
    T.Carves += C.SlabCarves;
  }
  return T;
}

/// Median wall time in ms over \p Reps runs of \p f.
template <class F> double median_ms(int Reps, F &&f) {
  std::vector<double> T;
  for (int I = 0; I < Reps; ++I) {
    uint64_t T0 = now_ns();
    f();
    T.push_back((now_ns() - T0) * 1e-6);
  }
  return median(T);
}

/// Encoder probe: encode and decode every block of the workload's own
/// sorted entries through Enc's public encode/decode, checking the round
/// trip. Reports ns per entry for each direction and bytes per entry.
template <class Enc, class Entry>
void probe_encoder(result &R, const char *Tag,
                   const std::vector<std::pair<size_t, size_t>> &Blocks,
                   const std::vector<Entry> &Src) {
  size_t Entries = 0, Bytes = 0, MaxN = 0;
  for (auto [Off, N] : Blocks) {
    Entries += N;
    Bytes += Enc::encoded_size(Src.data() + Off, N);
    MaxN = std::max(MaxN, N);
  }
  std::vector<Entry> In(MaxN), Out(MaxN);
  std::vector<uint8_t> Buf(MaxN * (sizeof(Entry) + 16) + 64);
  uint64_t EncNs = 0, DecNs = 0, Passes = 0;
  bool Ok = true;
  uint64_t Start = now_ns();
  do {
    trace::span S(kEncoding, "encode_decode");
    for (auto [Off, N] : Blocks) {
      std::copy(Src.begin() + Off, Src.begin() + Off + N, In.begin());
      uint64_t T0 = now_ns();
      Enc::encode(In.data(), N, Buf.data());
      uint64_t T1 = now_ns();
      Enc::decode(Buf.data(), N, Out.data());
      uint64_t T2 = now_ns();
      EncNs += T1 - T0;
      DecNs += T2 - T1;
      if (!std::equal(Out.begin(), Out.begin() + N, Src.begin() + Off))
        Ok = false;
    }
    ++Passes;
  } while (now_ns() - Start < 100'000'000ull && Passes < 64);
  R.check(Ok, "encoder round trip");
  double PerEntry = 1.0 / (static_cast<double>(Entries) * Passes);
  std::string P = std::string("encoding.") + Tag;
  R.add(P + ".encode_ns_per_entry", EncNs * PerEntry, "ns");
  R.add(P + ".decode_ns_per_entry", DecNs * PerEntry, "ns");
  R.add(P + ".bytes_per_entry",
        Entries ? static_cast<double>(Bytes) / Entries : 0, "B");
}

/// Blocks of \p B consecutive entries over a sorted array of size \p N.
std::vector<std::pair<size_t, size_t>> even_blocks(size_t N, size_t B) {
  std::vector<std::pair<size_t, size_t>> Out;
  for (size_t I = 0; I < N; I += B)
    Out.push_back({I, std::min(B, N - I)});
  return Out;
}

/// Per-layer counters that only one workload produces read 0 on the
/// others (that layer is not exercised there); they are emitted on every
/// traced run so every run carries the full per-layer set.
void add_zero(result &R, const std::vector<std::pair<const char *,
                                                      const char *>> &Ms) {
  for (auto [Name, Unit] : Ms)
    R.add(Name, 0, Unit, "not exercised by this workload");
}

void add_layer_self_times(result &R, double OverheadFrac) {
  for (int L = 0; L < kNumLayers; ++L)
    R.add(std::string(kLayerNames[L]) + ".self_ms",
          trace::SelfNs[L].load() * 1e-6, "ms");
  R.add("trace.overhead_frac", OverheadFrac, "frac");
}

//===----------------------------------------------------------------------===//
// setalg
//===----------------------------------------------------------------------===//

using SMap = pam_map<uint64_t, uint64_t, 128, diff_encoder>;
using SEntry = std::pair<uint64_t, uint64_t>;

struct setalg_input {
  size_t N = 0;
  std::vector<SEntry> ASorted, BSorted, AShuf, Skew, Batch;
  // Oracle answers.
  std::vector<SEntry> Union, UnionSkew, Inter, Diff, Multi, Filt;
  uint64_t Sum = 0;
};

bool key_less(const SEntry &A, const SEntry &B) { return A.first < B.first; }

bool filter_pred(const SEntry &E) { return (E.second & 3) == 0; }

setalg_input make_setalg_input(size_t N, uint64_t Seed) {
  setalg_input In;
  In.N = N;
  Rng R(hash64(Seed * 0x51ED27ULL + 7));
  const uint64_t Universe = 8 * N;
  // A: N distinct keys uniform over [0, 8N).
  std::vector<uint64_t> AK = random_keys_sorted(N, Universe, R.ith(1));
  // B: half of A's keys plus fresh keys, so the operands overlap ~half.
  std::vector<uint64_t> BK;
  BK.reserve(N + N / 4);
  for (size_t I = 0; I < AK.size(); ++I)
    if (R.ith(100 + I) & 1)
      BK.push_back(AK[I]);
  std::vector<uint64_t> Fresh =
      random_keys_sorted(N - BK.size() + N / 8, Universe, R.ith(2));
  std::vector<uint64_t> FreshOnly;
  std::set_difference(Fresh.begin(), Fresh.end(), AK.begin(), AK.end(),
                      std::back_inserter(FreshOnly));
  FreshOnly.resize(std::min(FreshOnly.size(), N - BK.size()));
  BK.insert(BK.end(), FreshOnly.begin(), FreshOnly.end());
  std::sort(BK.begin(), BK.end());
  auto Vals = [&](const std::vector<uint64_t> &K, uint64_t Salt) {
    std::vector<SEntry> E(K.size());
    for (size_t I = 0; I < K.size(); ++I)
      E[I] = {K[I], hash64(K[I] ^ Salt) >> 8};
    return E;
  };
  In.ASorted = Vals(AK, R.ith(3));
  In.BSorted = Vals(BK, R.ith(4));
  auto Shuffled = [&](std::vector<SEntry> V, uint64_t Salt) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[R.ith(Salt + I, I)]);
    return V;
  };
  In.AShuf = Shuffled(In.ASorted, 1ull << 40);
  // Skewed operand: N/1000 keys.
  In.Skew = Vals(random_keys_sorted(std::max<size_t>(N / 1000, 1), Universe,
                                    R.ith(5)),
                 R.ith(6));
  // Clustered batch: ~N/10 keys in 64 narrow ranges (density 1/4 each).
  const size_t Clusters = 64, Want = N / 10,
               Width = std::max<size_t>(4 * Want / Clusters, 4);
  std::vector<uint64_t> BatchK;
  for (size_t I = 0; I < Want; ++I) {
    uint64_t Base = R.ith(7000 + I % Clusters, Universe - Width);
    BatchK.push_back(Base + R.ith(1'000'000 + I, Width));
  }
  std::sort(BatchK.begin(), BatchK.end());
  BatchK.erase(std::unique(BatchK.begin(), BatchK.end()), BatchK.end());
  std::vector<SEntry> BatchSorted = Vals(BatchK, R.ith(8));
  In.Batch = Shuffled(BatchSorted, 3ull << 40);

  // Oracle answers (combine = take_right: the right operand's value wins).
  const auto &A = In.ASorted, &B = In.BSorted;
  std::set_union(B.begin(), B.end(), A.begin(), A.end(),
                 std::back_inserter(In.Union), key_less);
  std::set_union(A.begin(), A.end(), In.Skew.begin(), In.Skew.end(),
                 std::back_inserter(In.UnionSkew), key_less);
  std::set_intersection(B.begin(), B.end(), A.begin(), A.end(),
                        std::back_inserter(In.Inter), key_less);
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::back_inserter(In.Diff), key_less);
  std::set_union(BatchSorted.begin(), BatchSorted.end(), A.begin(), A.end(),
                 std::back_inserter(In.Multi), key_less);
  for (const SEntry &E : A) {
    if (filter_pred(E))
      In.Filt.push_back(E);
    In.Sum += E.second;
  }
  return In;
}

/// Streams \p T in order and compares it with \p Want.
template <class M, class E>
bool same_entries(const M &T, const std::vector<E> &Want) {
  if (T.size() != Want.size())
    return false;
  size_t I = 0;
  bool Ok = true;
  T.foreach_seq([&](const E &X) {
    if (I >= Want.size() || !(X == Want[I])) {
      Ok = false;
      return false;
    }
    ++I;
    return true;
  });
  return Ok && I == Want.size();
}

struct setalg_round {
  uint64_t BuildNs = 0, UnionNs = 0, SkewNs = 0, InterNs = 0, DiffNs = 0,
           MultiNs = 0, FilterNs = 0, ReduceNs = 0, DropNs = 0;
  uint64_t total() const {
    return BuildNs + UnionNs + SkewNs + InterNs + DiffNs + MultiNs +
           FilterNs + ReduceNs + DropNs;
  }
};

/// One round of the mix; checks every output against the oracle after the
/// timed calls. \p Corrupt feeds one deliberately wrong answer to the
/// oracle.
setalg_round run_setalg_round(const setalg_input &In, const SMap &B,
                              const SMap &Skew, result &R, bool Check,
                              bool Corrupt) {
  setalg_round T;
  trace::begin_request();
  std::optional<SMap> A, U, US, I, D, M, F;
  uint64_t Sum = 0;
  std::vector<SEntry> Batch = In.Batch; // multi_insert takes its batch by value.
  T.BuildNs = timed(kCore, "build", [&] { A.emplace(In.AShuf); });
  T.UnionNs = timed(kCore, "union", [&] { U = SMap::map_union(*A, B); });
  T.SkewNs = timed(kCore, "union_skew", [&] { US = SMap::map_union(Skew, *A); });
  T.InterNs = timed(kCore, "intersect",
                    [&] { I = SMap::map_intersect(*A, B); });
  T.DiffNs = timed(kCore, "difference",
                   [&] { D = SMap::map_difference(*A, B); });
  T.MultiNs = timed(kCore, "multi_insert",
                    [&] { M = A->multi_insert(std::move(Batch)); });
  T.FilterNs = timed(kCore, "filter", [&] { F = A->filter(filter_pred); });
  T.ReduceNs = timed(kCore, "reduce", [&] {
    Sum = A->map_reduce([](const SEntry &E) { return E.second; },
                        uint64_t(0), std::plus<uint64_t>());
  });
  if (Check) {
    if (Corrupt)
      U = U->insert(In.Union.back().first + 1, 42);
    R.check(same_entries(*A, In.ASorted), "setalg build");
    R.check(same_entries(*U, In.Union), "setalg union");
    R.check(same_entries(*US, In.UnionSkew), "setalg union skew");
    R.check(same_entries(*I, In.Inter), "setalg intersect");
    R.check(same_entries(*D, In.Diff), "setalg difference");
    R.check(same_entries(*M, In.Multi), "setalg multi_insert");
    R.check(same_entries(*F, In.Filt), "setalg filter");
    R.check(Sum == In.Sum, "setalg map_reduce");
  }
  T.DropNs = timed(kCore, "drop", [&] {
    A.reset(), U.reset(), US.reset(), I.reset(), D.reset(), M.reset(),
        F.reset();
  });
  return T;
}

void run_setalg(const options &O, result &R) {
  const size_t N = O.Tiny ? 20'000 : 2'000'000;
  setalg_input In;
  std::optional<SMap> B, Skew;
  const double SetupS = 1e-3 * median_ms(3, [&] {
    B.reset(), Skew.reset();
    In = setalg_input();
    In = make_setalg_input(N, O.Seed);
    maybe_cold([&] { B.emplace(In.BSorted); });
    Skew.emplace(SMap::from_sorted(In.Skew));
    result WarmUp;
    for (int W = 0; W < 2; ++W) // Warm-up rounds count as set-up.
      run_setalg_round(In, *B, *Skew, WarmUp, false, false);
  });
  R.check(same_entries(*B, In.BSorted), "setalg build B");

  // Operand entries each op consumes: build N, union 2N, skewed union
  // N + N/1000, intersect 2N, difference 2N, multi_insert N + N/10,
  // filter N, map_reduce N.
  const double Consumed = N + 2.0 * N + (N + In.Skew.size()) + 2.0 * N +
                          2.0 * N + (N + In.Batch.size()) + N + N;
  std::vector<double> RoundMs, MultiMs, TracedMs, UntracedMs;
  std::vector<setalg_round> Rounds;
  par::SchedulerStats S0 = par::scheduler_stats();
  pool_totals P0 = pool_now();
  const uint64_t Fb0 =
      obs::registry::get().raw_counter("merge.fallbacks").load();
  double Cpu0 = cpu_seconds();
  const uint64_t Start = now_ns();
  for (size_t K = 0;; ++K) {
    bool Traced = O.Trace && (K & 1);
    trace::On.store(Traced);
    setalg_round T = run_setalg_round(In, *B, *Skew, R, true,
                                      O.Corrupt && K == 0);
    trace::On.store(false);
    Rounds.push_back(T);
    RoundMs.push_back(T.total() * 1e-6);
    MultiMs.push_back(T.MultiNs * 1e-6);
    (Traced ? TracedMs : UntracedMs).push_back(T.total() * 1e-6);
    if ((now_ns() - Start) * 1e-9 >= O.Seconds && K >= 3)
      break;
  }
  const double Wall = (now_ns() - Start) * 1e-9;
  const double CpuPerWall = (cpu_seconds() - Cpu0) / Wall;
  par::SchedulerStats S1 = par::scheduler_stats();
  pool_totals P1 = pool_now();
  const uint64_t Fb1 =
      obs::registry::get().raw_counter("merge.fallbacks").load();
  const double NR = static_cast<double>(Rounds.size());

  const double RssMb = peak_rss_mb();
  // Resident collection: the two operands.
  SMap A(In.AShuf);
  const double Entries = static_cast<double>(A.size() + B->size());
  const double BytesPerEntry = (A.size_in_bytes() + B->size_in_bytes()) /
                               Entries;

  // A 30 s run fits about 100 rounds: too few for a p90 with 10 rounds
  // beyond it, enough for a p80 even when the machine is slow.
  const double TailP = 80;
  if (!O.Trace) {
    std::vector<double> RM = RoundMs, MM = MultiMs;
    std::string Note = std::to_string(RoundMs.size()) + " rounds";
    R.add("setup_s", SetupS, "s", "median of 3 set-ups incl. 2 warm-up rounds");
    R.add("peak_rss_mb", RssMb, "MB");
    R.add("bytes_per_entry", BytesPerEntry, "B",
          "size_in_bytes of both operands per entry");
    R.add("throughput", Consumed / (median(RM) * 1e-3), "1/s",
          "setalg.entries_per_s: operand entries consumed per s, median round");
    R.add("request_ms_p50", pct(RM, 50), "ms", "setalg.round_ms_p50, " + Note);
    const bool Tail = supports(RM.size(), TailP);
    const std::string TailName = Tail ? "p80" : "p50 (too few rounds)";
    R.add("request_ms_tail", pct(RM, Tail ? TailP : 50), "ms",
          "setalg.round_ms_" + TailName + ", " + Note);
    R.add("update_ms_p50", pct(MM, 50), "ms",
          "setalg.multi_insert_ms_p50, " + Note);
    R.add("update_ms_tail", pct(MM, Tail ? TailP : 50), "ms",
          "setalg.multi_insert_ms_" + TailName + ", " + Note);
  } else {
    auto Med = [&](uint64_t setalg_round::*F) {
      std::vector<double> V;
      for (const auto &T : Rounds)
        V.push_back(T.*F * 1e-6);
      return median(V);
    };
    R.add("core.build_ms", Med(&setalg_round::BuildNs), "ms");
    R.add("core.union_ms", Med(&setalg_round::UnionNs), "ms");
    R.add("core.union_skew_ms", Med(&setalg_round::SkewNs), "ms");
    R.add("core.intersect_ms", Med(&setalg_round::InterNs), "ms");
    R.add("core.difference_ms", Med(&setalg_round::DiffNs), "ms");
    R.add("core.multi_insert_ms", Med(&setalg_round::MultiNs), "ms");
    R.add("core.filter_ms", Med(&setalg_round::FilterNs), "ms");
    R.add("core.reduce_ms", Med(&setalg_round::ReduceNs), "ms");
    R.add("core.merge_fallbacks_per_round", (Fb1 - Fb0) / NR, "count");
    R.add("parallel.forks_per_round", (S1.Forks - S0.Forks) / NR, "count");
    R.add("parallel.steals_per_round", (S1.Steals - S0.Steals) / NR, "count");
    R.add("parallel.failed_steals_per_round",
          (S1.FailedSteals - S0.FailedSteals) / NR, "count");
    R.add("parallel.join_parks_per_round",
          (S1.JoinParks - S0.JoinParks) / NR, "count");
    R.add("parallel.cpu_per_wall", CpuPerWall, "ratio",
          "process CPU over wall in the timed rounds (incl. oracle checks)");
    R.add("alloc.node_allocs_per_round", (P1.Allocs - P0.Allocs) / NR,
          "count");
    R.add("alloc.refill_batches_per_round", (P1.Refills - P0.Refills) / NR,
          "count");
    R.add("alloc.slab_carves", static_cast<double>(P1.Carves - P0.Carves),
          "count", "during the timed rounds");
    // Only A and B (and the small skew operand) are live here.
    R.add("alloc.live_bytes_per_entry",
          alloc_stats::live_byte_count() /
              (Entries + static_cast<double>(Skew->size())),
          "B");
    // T1 vs Tp of the same calls.
    auto Speedup = [&](const char *Name, auto &&f) {
      par::set_sequential(true);
      double T1 = median_ms(3, f);
      par::set_sequential(false);
      double Tp = median_ms(3, f);
      R.add(std::string("parallel.speedup.") + Name, T1 / Tp, "x",
            "T1 / Tp, median of 3 each");
    };
    trace::On.store(true);
    Speedup("build", [&] { SMap X(In.AShuf); });
    Speedup("union", [&] { SMap X = SMap::map_union(A, *B); });
    Speedup("multi_insert", [&] { SMap X = A.multi_insert(In.Batch); });
    probe_encoder<diff_encoder<map_entry<uint64_t, uint64_t>>>(
        R, "diff", even_blocks(In.ASorted.size(), 128), In.ASorted);
    probe_encoder<raw_encoder<map_entry<uint64_t, uint64_t>>>(
        R, "raw", even_blocks(In.ASorted.size(), 128), In.ASorted);
    trace::On.store(false);
  }
  R.WorkloadConfig =
      "\"n_per_operand\": " + std::to_string(N) +
      ", \"key_universe\": " + std::to_string(8 * N) +
      ", \"overlap\": 0.5, \"skew_operand\": " +
      std::to_string(In.Skew.size()) +
      ", \"batch\": " + std::to_string(In.Batch.size()) +
      ", \"resident_mb\": " +
      std::to_string((A.size_in_bytes() + B->size_in_bytes()) / 1048576.0) +
      ", \"l2_mb_per_core\": 2, \"threads\": " +
      std::to_string(par::num_workers()) +
      ", \"rounds\": " + std::to_string(Rounds.size());
  if (O.Trace)
    add_layer_self_times(R, median(TracedMs) / median(UntracedMs) - 1);
}

//===----------------------------------------------------------------------===//
// point
//===----------------------------------------------------------------------===//

using PEntryT = aug_sum_entry<uint64_t, uint64_t>;
using PMap = aug_map<PEntryT, 128, raw_encoder>;
using PEntry = PEntryT::entry_t;

/// Oracle state of one client's newest version: the value of every key
/// (0 = absent; values fit 16 bits) plus per-64-key block sums and counts,
/// and an undo log of the last writes so any retained version can be
/// answered. About 1 MB, so a client's tree and oracle stay near one
/// core's L2.
class point_oracle {
public:
  static constexpr uint64_t kMaxVal = 0xFFFF;
  struct write_rec {
    uint64_t Key, Old, New;
  };

  point_oracle(size_t U, size_t Ring)
      : Val(U, 0), BSum(U / kBlock + 1, 0), BCnt(U / kBlock + 1, 0),
        Log(Ring) {}

  void set(uint64_t K, uint64_t V, bool Logged) {
    const uint64_t Old = Val[K];
    if (Logged) {
      LogHead = (LogHead + 1) % Log.size();
      Log[LogHead] = {K, Old, V};
    }
    Val[K] = static_cast<uint16_t>(V);
    BSum[K / kBlock] += V - Old;
    BCnt[K / kBlock] += (V != 0) - (Old != 0);
    Count += (V != 0) - (Old != 0);
  }
  uint64_t value(uint64_t K) const { return Val[K]; }
  uint64_t size() const { return Count; }

  /// Value of \p K in the version \p Age writes older than the newest.
  uint64_t value_at(uint64_t K, size_t Age) const {
    uint64_t V = Val[K];
    for (size_t A = 0; A < Age; ++A) {
      const write_rec &W = Log[(LogHead + Log.size() - A) % Log.size()];
      if (W.Key == K)
        V = W.Old;
    }
    return V;
  }
  /// Sum and count of values with KL <= key <= KR, \p Age writes back.
  std::pair<uint64_t, uint64_t> range_at(uint64_t KL, uint64_t KR,
                                         size_t Age) const {
    uint64_t S = 0, C = 0;
    uint64_t K = KL;
    for (; K <= KR && K % kBlock != 0; ++K)
      S += Val[K], C += Val[K] != 0;
    for (; K + kBlock - 1 <= KR; K += kBlock)
      S += BSum[K / kBlock], C += BCnt[K / kBlock];
    for (; K <= KR; ++K)
      S += Val[K], C += Val[K] != 0;
    for (size_t A = 0; A < Age; ++A) {
      const write_rec &W = Log[(LogHead + Log.size() - A) % Log.size()];
      if (W.Key >= KL && W.Key <= KR) {
        S += W.Old - W.New;
        C += (W.Old != 0) - static_cast<int>(W.New != 0);
      }
    }
    return {S, C};
  }

private:
  static constexpr uint64_t kBlock = 64;
  std::vector<uint16_t> Val;
  std::vector<uint64_t> BSum, BCnt;
  std::vector<write_rec> Log;
  size_t LogHead = 0;
  uint64_t Count = 0;
};

enum point_op { kFind, kAugRange, kRange, kInsert, kRemove, kNumPointOps };
const char *const kPointOpNames[kNumPointOps] = {"find", "aug_range", "range",
                                                 "insert", "remove"};

struct point_client_stats {
  windowed Read{99, 1 << 18}, Write{99, 1 << 17};
  std::vector<windowed> PerOp = std::vector<windowed>(kNumPointOps,
                                                      windowed(99, 1 << 17));
  std::vector<double> WindowRates; ///< Ops per busy second, per window.
  uint64_t WinOps = 0, WinBusyNs = 0;
  uint64_t Ops = 0, BusyNs = 0;
  uint64_t TracedOps = 0, TracedBusyNs = 0, UntracedOps = 0,
           UntracedBusyNs = 0;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
};

constexpr size_t kPointRing = 8;
constexpr uint64_t kPointWindowNs = 100'000'000;

void point_client(const PMap &Initial, const point_oracle &InitOracle,
                  size_t U, uint64_t Seed, double Seconds, bool Corrupt,
                  point_client_stats &St) {
  point_oracle Or = InitOracle;
  std::vector<PMap> Ring(kPointRing, Initial);
  size_t Head = 0, Valid = 1;
  Rng Rnd(Seed);
  uint64_t Draw = 0;
  auto Fail = [&](const char *What) {
    ++St.Failed;
    if (St.Errors.size() < 10)
      St.Errors.push_back(What);
  };
  auto RollAll = [&](bool Full) {
    St.Read.roll();
    St.Write.roll();
    for (auto &W : St.PerOp)
      W.roll();
    if (Full && St.WinBusyNs)
      St.WindowRates.push_back(St.WinOps / (St.WinBusyNs * 1e-9));
    St.WinOps = St.WinBusyNs = 0;
  };
  const uint64_t Start = now_ns();
  uint64_t WindowStart = Start;
  for (uint64_t K = 0;; ++K) {
    if ((K & 63) == 0) {
      uint64_t Now = now_ns();
      if (Now - WindowStart >= kPointWindowNs) {
        RollAll(/*Full=*/true);
        WindowStart = Now;
      }
      if ((Now - Start) * 1e-9 >= Seconds)
        break;
    }
    const uint64_t X = Rnd.ith(Draw++);
    const unsigned Pick = X % 100;
    const point_op Op = Pick < 40   ? kFind
                        : Pick < 65 ? kAugRange
                        : Pick < 80 ? kRange
                        : Pick < 90 ? kInsert
                                    : kRemove;
    const size_t Age = (X >> 8) % Valid;
    const PMap &V = Ring[(Head + kPointRing - Age) % kPointRing];
    const uint64_t Key = (X >> 16) % U;
    trace::begin_request();
    const bool Traced = trace::On.load(std::memory_order_relaxed);
    uint64_t Ns = 0;
    ++St.Attempted;
    switch (Op) {
    case kFind: {
      std::optional<uint64_t> Got;
      Ns = timed(kApi, "find", [&] { Got = V.find(Key); });
      if (Corrupt) { // Feed the oracle one wrong answer.
        Got = Got ? std::nullopt : std::optional<uint64_t>(1);
        Corrupt = false;
      }
      uint64_t Want = Or.value_at(Key, Age);
      if (Got.value_or(0) != Want || Got.has_value() != (Want != 0))
        Fail("point find");
      break;
    }
    case kAugRange: {
      const uint64_t KR = std::min<uint64_t>(Key + 4096, U - 1);
      uint64_t Got = 0;
      Ns = timed(kApi, "aug_range", [&] { Got = V.aug_range(Key, KR); });
      if (Got != Or.range_at(Key, KR, Age).first)
        Fail("point aug_range");
      break;
    }
    case kRange: {
      const uint64_t KR = std::min<uint64_t>(Key + 63, U - 1);
      std::optional<PMap> Got;
      Ns = timed(kApi, "range", [&] { Got = V.range(Key, KR); });
      uint64_t S = 0, C = 0;
      Got->foreach_seq([&](const PEntry &E) {
        S += E.second;
        ++C;
      });
      if (std::make_pair(S, C) != Or.range_at(Key, KR, Age))
        Fail("point range");
      break;
    }
    case kInsert:
    case kRemove: {
      uint64_t WKey = Key, WVal = 1 + (X >> 40) % point_oracle::kMaxVal;
      if (Op == kRemove) {
        for (int T = 0; T < 64 && Or.value(WKey) == 0; ++T)
          WKey = Rnd.ith(Draw++) % U;
        WVal = 0;
      }
      const PMap &Newest = Ring[Head];
      std::optional<PMap> Next;
      Ns = Op == kInsert
               ? timed(kApi, "insert",
                       [&] { Next = Newest.insert(WKey, WVal); })
               : timed(kApi, "remove", [&] { Next = Newest.remove(WKey); });
      Or.set(WKey, WVal, /*Logged=*/true);
      Head = (Head + 1) % kPointRing;
      Ring[Head] = std::move(*Next);
      Valid = std::min(Valid + 1, kPointRing);
      if (Ring[Head].size() != Or.size())
        Fail("point write size");
      break;
    }
    default:
      break;
    }
    (Op >= kInsert ? St.Write : St.Read).add(Ns);
    St.PerOp[Op].add(Ns);
    ++St.Ops, ++St.WinOps;
    St.BusyNs += Ns;
    St.WinBusyNs += Ns;
    if (Traced) {
      ++St.TracedOps;
      St.TracedBusyNs += Ns;
    } else {
      ++St.UntracedOps;
      St.UntracedBusyNs += Ns;
    }
  }
  RollAll(/*Full=*/false);
}

void run_point(const options &O, result &R) {
  const size_t N = O.Tiny ? 4096 : size_t(1) << 16;
  const size_t U = 4 * N; // Key universe: density 1/4.
  const int Clients = 2;
  std::optional<PMap> M;
  std::optional<point_oracle> Or;
  std::vector<PEntry> Sorted;
  const double SetupS = 1e-3 * median_ms(3, [&] {
    M.reset();
    Or.reset();
    Rng Rnd(hash64(O.Seed * 0xA5A5ULL + 3));
    std::vector<uint64_t> Keys = random_keys_sorted(N, U, Rnd.ith(1));
    Sorted.assign(Keys.size(), PEntry{});
    for (size_t I = 0; I < Keys.size(); ++I)
      Sorted[I] = {Keys[I], 1 + Rnd.ith(10 + I) % point_oracle::kMaxVal};
    std::vector<PEntry> Shuf = Sorted;
    for (size_t I = Shuf.size(); I > 1; --I)
      std::swap(Shuf[I - 1], Shuf[Rnd.ith(1'000'000 + I, I)]);
    maybe_cold([&] { M.emplace(Shuf); });
    Or.emplace(U, kPointRing);
    for (const PEntry &E : Sorted)
      Or->set(E.first, E.second, /*Logged=*/false);
    // Warm-up: a short single-client burst.
    point_client_stats WarmUp;
    point_client(*M, *Or, U, O.Seed + 99, O.Tiny ? 0.02 : 0.2, false,
                 WarmUp);
  });
  R.check(same_entries(*M, Sorted), "point build");

  // Each client gets its own CPU, the highest-numbered ones the process may
  // use: CPU 0 takes the guest's interrupts, and unpinned clients migrate.
  // Pinning narrowed the run-to-run spread of the latencies on the 4-vCPU
  // VM this was sized on.
  const std::vector<int> ClientCpus = last_cpus(Clients);
  std::vector<point_client_stats> St(Clients);
  std::vector<std::thread> Threads;
  std::atomic<bool> Done{false};
  std::thread Toggler;
  if (O.Trace) // Alternate traced and untraced stretches of 0.5 s.
    Toggler = std::thread([&] {
      uint64_t T0 = now_ns();
      while (!Done.load()) {
        trace::On.store(((now_ns() - T0) / 500'000'000) & 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      trace::On.store(false);
    });
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      if (C < static_cast<int>(ClientCpus.size()))
        pin_to_cpu(ClientCpus[C]);
      point_client(*M, *Or, U, hash64(O.Seed * 31 + C + 1), O.Seconds,
                   O.Corrupt && C == 0, St[C]);
    });
  for (auto &T : Threads)
    T.join();
  Done.store(true);
  if (Toggler.joinable())
    Toggler.join();
  const double RssMb = peak_rss_mb();

  point_client_stats All;
  double OpsPerS = 0, TracedRate = 0, UntracedRate = 0;
  for (auto &S : St) {
    All.Read.absorb(S.Read);
    All.Write.absorb(S.Write);
    for (int I = 0; I < kNumPointOps; ++I)
      All.PerOp[I].absorb(S.PerOp[I]);
    OpsPerS += S.WindowRates.empty()
                   ? S.Ops / (S.BusyNs * 1e-9)
                   : pct(S.WindowRates, 100 - kQuietWindowPct);
    if (S.TracedBusyNs && S.UntracedBusyNs) {
      TracedRate += S.TracedOps / (S.TracedBusyNs * 1e-9);
      UntracedRate += S.UntracedOps / (S.UntracedBusyNs * 1e-9);
    }
    R.Attempted += S.Attempted;
    R.Failed += S.Failed;
    R.Wrong += S.Failed;
    for (auto &E : S.Errors)
      R.Errors.push_back(E);
  }
  const double BytesPerEntry =
      static_cast<double>(M->size_in_bytes()) / M->size();
  if (!O.Trace) {
    auto Note = [](const windowed &W) {
      return "quietest of " + std::to_string(W.windows()) +
             " windows of 0.1 s; " + std::to_string(W.samples()) +
             " samples";
    };
    R.add("setup_s", SetupS, "s", "median of 3 set-ups incl. warm-up");
    R.add("peak_rss_mb", RssMb, "MB");
    R.add("bytes_per_entry", BytesPerEntry, "B", "initial aug_map");
    R.add("throughput", OpsPerS, "1/s",
          "point.ops_per_s: sum over 2 clients of ops per busy second, quietest of each client's 0.1 s windows");
    R.add("request_ms_p50", All.Read.p50() * 1e-6, "ms",
          "point.read_us_p50; " + Note(All.Read));
    R.add("request_ms_tail", All.Read.tail() * 1e-6, "ms",
          "point.read_us_p99; " + Note(All.Read));
    R.add("update_ms_p50", All.Write.p50() * 1e-6, "ms",
          "point.write_us_p50; " + Note(All.Write));
    R.add("update_ms_tail", All.Write.tail() * 1e-6, "ms",
          "point.write_us_p99; " + Note(All.Write));
  } else {
    for (int I = 0; I < kNumPointOps; ++I) {
      std::string P = std::string("api.") + kPointOpNames[I];
      R.add(P + "_us_p50", All.PerOp[I].p50() * 1e-3, "us");
      R.add(P + "_us_p99", All.PerOp[I].tail() * 1e-3, "us");
    }
    // Allocations per functional write, single client, on a quiet pool.
    {
      Rng Rnd(O.Seed + 5);
      PMap V = *M;
      const int W = 2000;
      pool_totals P0 = pool_now();
      for (int I = 0; I < W; ++I)
        V = V.insert(Rnd.ith(I) % U, 1 + I);
      pool_totals P1 = pool_now();
      R.add("alloc.node_allocs_per_write",
            static_cast<double>(P1.Allocs - P0.Allocs) / W, "count",
            "pool allocations per functional insert");
    }
    trace::On.store(true);
    probe_encoder<raw_encoder<map_entry<uint64_t, uint64_t>>>(
        R, "raw", even_blocks(Sorted.size(), 128), Sorted);
    probe_encoder<diff_encoder<map_entry<uint64_t, uint64_t>>>(
        R, "diff", even_blocks(Sorted.size(), 128), Sorted);
    trace::On.store(false);
  }
  R.WorkloadConfig =
      "\"keys\": " + std::to_string(N) +
      ", \"key_universe\": " + std::to_string(U) +
      ", \"resident_mb\": " + std::to_string(M->size_in_bytes() / 1048576.0) +
      ", \"l2_mb_per_core\": 2, \"clients\": " + std::to_string(Clients) +
      ", \"client_cpus\": \"" + [&] {
        std::string S;
        for (int C : ClientCpus)
          S += (S.empty() ? "" : ",") + std::to_string(C);
        return S.empty() ? std::string("unpinned") : S;
      }() + "\"" +
      ", \"retained_versions_per_client\": " + std::to_string(kPointRing) +
      ", \"mix\": \"find 40, aug_range 25, range 15, insert 10, remove 10\"";
  if (O.Trace)
    add_layer_self_times(R, UntracedRate > 0 ? UntracedRate / TracedRate - 1
                                             : 0);
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

using Graph = sym_graph;

struct serve_params {
  int LogN;
  size_t InitialEdges;       // Directed rMAT edges drawn for the base graph.
  double RefRate;            // Offered directed edges/s, reference phase.
  std::vector<double> Ladder; // Offered rates probed for max_ingest_eps.
  double LimitMs;            // Visibility p99 limit.
  double RefShare;           // Share of the run spent at the reference rate.
};

serve_params serve_params_for(bool Tiny) {
  if (Tiny)
    return {10, 1 << 13, 20'000, {20'000, 40'000}, 200, 0.5};
  // The writer's capacity swings with the load on the machine between
  // roughly 100k and 250k edges/s, so the rungs are 4x apart: 80k/s passes
  // and 320k/s fails in both regimes. The reference rate keeps the writer
  // well below capacity even when the machine is slow.
  return {17, size_t(1) << 21, 20'000, {80'000, 320'000}, 100, 0.6};
}

/// Writer-side log of published batches: batch k (0-based apply call) is
/// in version seq k + 2 and ends at directed-edge index End[k].
struct batch_log {
  std::vector<uint64_t> End;          // Preallocated; written by the writer.
  std::vector<uint64_t> VisibleNs;    // First acquire seeing the batch.
  std::atomic<uint64_t> Count{0};
  std::mutex M;                       // Guards SeenSeq and VisibleNs.
  uint64_t SeenSeq = 1;

  explicit batch_log(size_t Cap) : End(Cap, 0), VisibleNs(Cap, 0) {}

  /// Marks every batch contained in version \p Seq as visible at \p Ns.
  void mark(uint64_t Seq, uint64_t Ns) {
    std::lock_guard<std::mutex> L(M);
    for (uint64_t S = SeenSeq + 1; S <= Seq; ++S)
      VisibleNs[S - 2] = Ns;
    SeenSeq = std::max(SeenSeq, Seq);
  }
};

struct serve_query {
  uint64_t Seq;
  vertex_id V;
  uint64_t Deg, IdSum, Paths2;
};

/// The 2-hop query: v's neighbours and the number of 2-hop paths from v.
serve_query two_hop(const Graph &G, vertex_id V) {
  serve_query Q{0, V, 0, 0, 0};
  typename Graph::edge_set N1 = G.neighbors(V);
  Q.Deg = N1.size();
  N1.foreach_seq([&](vertex_id U) {
    Q.IdSum += U;
    Q.Paths2 += G.degree(U);
  });
  return Q;
}

/// Adjacency oracle: the final graph as sorted rows, each entry tagged with
/// the 1-based stream index of its first appearance (0 = initial graph).
struct adjacency_oracle {
  std::vector<uint64_t> Off;
  std::vector<vertex_id> Dst;
  std::vector<uint32_t> First;

  adjacency_oracle(size_t NV, const std::vector<edge_pair> &Initial,
                   const std::vector<edge_pair> &Stream) {
    std::vector<uint64_t> Cnt(NV + 1, 0);
    for (auto &E : Initial)
      ++Cnt[E.first + 1];
    for (auto &E : Stream)
      ++Cnt[E.first + 1];
    for (size_t I = 0; I < NV; ++I)
      Cnt[I + 1] += Cnt[I];
    std::vector<std::pair<vertex_id, uint32_t>> Tmp(Cnt[NV]);
    std::vector<uint64_t> Pos(Cnt.begin(), Cnt.end() - 1);
    for (auto &E : Initial)
      Tmp[Pos[E.first]++] = {E.second, 0};
    for (size_t I = 0; I < Stream.size(); ++I)
      Tmp[Pos[Stream[I].first]++] = {Stream[I].second,
                                     static_cast<uint32_t>(I + 1)};
    Off.assign(NV + 1, 0);
    for (size_t V = 0; V < NV; ++V) {
      auto B = Tmp.begin() + Cnt[V], E = Tmp.begin() + Cnt[V + 1];
      std::sort(B, E);
      for (auto It = B; It != E; ++It)
        if (It == B || It->first != (It - 1)->first) {
          Dst.push_back(It->first);
          First.push_back(It->second);
        }
      Off[V + 1] = Dst.size();
    }
  }
};

constexpr uint64_t kServeTickNs = 1'000'000;
constexpr uint64_t kServeWindowNs = 100'000'000;

void run_serve(const options &O, result &R) {
  const serve_params P = serve_params_for(O.Tiny);
  const size_t NV = size_t(1) << P.LogN;
  std::vector<edge_pair> Initial;
  std::optional<Graph> G0;
  Rng Rnd(hash64(O.Seed * 0x5E4FULL + 11));
  const double SetupS = 1e-3 * median_ms(3, [&] {
    G0.reset();
    RmatParams RP;
    RP.Seed = Rnd.ith(1);
    Initial = rmat_graph(P.LogN, P.InitialEdges, RP);
    maybe_cold([&] { G0.emplace(Graph::from_edges(Initial, NV)); });
    // Warm-up: one batch through insert_edges and a burst of queries.
    RmatParams WP;
    WP.Seed = Rnd.ith(2);
    Graph Warm = G0->insert_edges(rmat_edges(P.LogN, 4096, WP));
    for (vertex_id V = 0; V < 512; ++V)
      two_hop(Warm, static_cast<vertex_id>(Rnd.ith(100 + V) % NV));
  });
  R.check(G0->num_edges() == Initial.size(), "serve initial edge count");

  // Phase plan: the reference rate first, then the ladder, highest last.
  struct phase {
    double Rate, Secs;
  };
  std::vector<phase> Phases;
  // A traced run spends the whole run at the reference rate.
  const double RefSecs = O.Trace ? O.Seconds : O.Seconds * P.RefShare;
  Phases.push_back({P.RefRate, RefSecs});
  if (!O.Trace)
    for (double Rate : P.Ladder)
      Phases.push_back({Rate, (O.Seconds - RefSecs) / P.Ladder.size()});
  size_t MaxEdges = 0;
  for (auto &Ph : Phases)
    MaxEdges += static_cast<size_t>(Ph.Rate * Ph.Secs * 1.05) + 8192;

  std::vector<edge_pair> Stream;
  Stream.reserve(MaxEdges);
  std::vector<uint64_t> DueNs(MaxEdges, 0);
  batch_log Log(MaxEdges + 16);
  std::vector<double> InsertMs;
  InsertMs.reserve(1 << 16);

  serving::version_chain<Graph> Chain(*G0);
  using pipeline = serving::ingest_pipeline<Graph, edge_pair>;
  // Reader, writer and producer each get their own CPU, pinned like the
  // point clients (see run_point).
  const std::vector<int> Cpus = last_cpus(3);
  bool WriterPinned = false; // Touched only by the pipeline's writer.
  pipeline Pipe(Chain, [&](const Graph &Cur, std::vector<edge_pair> Batch) {
    if (!WriterPinned && !Cpus.empty()) {
      pin_to_cpu(Cpus[1]);
      WriterPinned = true;
    }
    trace::begin_request();
    const size_t Sz = Batch.size();
    std::optional<Graph> Next;
    uint64_t Ns = timed(kGraph, "insert_edges",
                        [&] { Next.emplace(Cur.insert_edges(std::move(Batch))); });
    InsertMs.push_back(Ns * 1e-6);
    uint64_t K = Log.Count.load(std::memory_order_relaxed);
    Log.End[K] = (K ? Log.End[K - 1] : 0) + Sz;
    Log.Count.store(K + 1, std::memory_order_release);
    return std::move(*Next);
  });

  // Reader: closed loop of acquire + 2-hop query.
  std::atomic<bool> ReaderStop{false}, Measure{false};
  windowed QueryLat(99, 1 << 17), AcquireLat(99, 1 << 17),
      GraphLat(99, 1 << 17);
  std::vector<serve_query> Answers;
  Answers.reserve(1 << 18);
  std::vector<uint64_t> TracedQ, UntracedQ;
  std::thread Reader([&] {
    if (!Cpus.empty())
      pin_to_cpu(Cpus[0]);
    Rng QR(hash64(O.Seed + 77));
    uint64_t Draw = 0, WinStart = now_ns();
    while (!ReaderStop.load(std::memory_order_relaxed)) {
      const vertex_id V = static_cast<vertex_id>(QR.ith(Draw++) % NV);
      trace::begin_request();
      const bool Traced = trace::On.load(std::memory_order_relaxed);
      uint64_t Seq = 0;
      std::optional<Graph> Snap;
      const uint64_t T0 = now_ns();
      {
        trace::span S(kServing, "acquire");
        Snap.emplace(Chain.acquire(Seq));
      }
      const uint64_t T1 = now_ns();
      Log.mark(Seq, T1);
      serve_query Q;
      {
        trace::span S(kGraph, "two_hop");
        Q = two_hop(*Snap, V);
      }
      const uint64_t T2 = now_ns();
      Q.Seq = Seq;
      if (Measure.load(std::memory_order_relaxed)) {
        QueryLat.add(T2 - T0);
        AcquireLat.add(T1 - T0);
        GraphLat.add(T2 - T1);
        (Traced ? TracedQ : UntracedQ).push_back(T2 - T0);
        if (T2 - WinStart >= kServeWindowNs) {
          QueryLat.roll(), AcquireLat.roll(), GraphLat.roll();
          WinStart = T2;
        }
      }
      if (Answers.size() < Answers.capacity())
        Answers.push_back(Q);
    }
    QueryLat.roll(), AcquireLat.roll(), GraphLat.roll();
  });

  // Producer: open loop at each phase's offered rate; due times are fixed
  // by the schedule, so a stalled pipeline delays later edges' visibility.
  struct phase_result {
    size_t Lo = 0, Hi = 0; // Directed-edge index range.
    double LateMsMax = 0;
    uint64_t BacklogMid = 0, BacklogEnd = 0;
    bool Refused = false;
  };
  std::vector<phase_result> PhaseRes(Phases.size());
  uint64_t Chunk = 0;
  std::vector<uint64_t> SubmitWait;
  SubmitWait.reserve(MaxEdges);
  std::vector<edge_pair> Pending;
  size_t PendingPos = 0;
  auto NextEdge = [&]() -> edge_pair {
    while (PendingPos >= Pending.size()) {
      RmatParams EP;
      EP.Seed = Rnd.ith(1'000'000 + Chunk++);
      std::vector<edge_pair> Raw = rmat_edges(P.LogN, 2048, EP);
      Pending.clear();
      for (auto &[U, V] : Raw)
        if (U != V) {
          Pending.push_back({U, V});
          Pending.push_back({V, U});
        }
      PendingPos = 0;
    }
    return Pending[PendingPos++];
  };
  cpu_set_t MainCpus;
  pthread_getaffinity_np(pthread_self(), sizeof(MainCpus), &MainCpus);
  if (!Cpus.empty())
    pin_to_cpu(Cpus[2]);
  Measure.store(true);
  for (size_t Ph = 0; Ph < Phases.size(); ++Ph) {
    const phase &F = Phases[Ph];
    phase_result &Res = PhaseRes[Ph];
    Res.Lo = Stream.size();
    const uint64_t T0 = now_ns();
    const size_t Count = std::min<size_t>(
        static_cast<size_t>(F.Rate * F.Secs), MaxEdges - Stream.size());
    uint64_t LastToggle = T0;
    for (size_t I = 0; I < Count; ++I) {
      const uint64_t Due =
          T0 + static_cast<uint64_t>(I * (1e9 / F.Rate));
      // Edges go out in 1 ms ticks: each is sent at the first tick at or
      // after its due time, and the producer sleeps between ticks.
      const uint64_t SendAt =
          T0 + (Due - T0 + kServeTickNs - 1) / kServeTickNs * kServeTickNs;
      uint64_t Now = now_ns();
      if (Now < SendAt) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(SendAt - Now));
        Now = now_ns();
      }
      // An overloaded phase blocks on the full queue; it still ends on time.
      if (Now - T0 > static_cast<uint64_t>(F.Secs * 1e9))
        break;
      if (O.Trace && Now - LastToggle >= 500'000'000) {
        trace::On.store(!trace::On.load());
        LastToggle = Now;
      }
      Res.LateMsMax =
          std::max(Res.LateMsMax, (Now - std::min(Now, SendAt)) * 1e-6);
      const edge_pair E = NextEdge();
      DueNs[Stream.size()] = Due;
      Stream.push_back(E);
      bool Ok = false;
      const uint64_t W = timed(kServing, "submit", [&] { Ok = Pipe.submit(E); });
      SubmitWait.push_back(W);
      if (!Ok) {
        Stream.pop_back();
        Res.Refused = true;
        R.check(false, "serve submit refused", /*WrongAnswer=*/false);
        break;
      }
      if (I == Count / 2)
        Res.BacklogMid = Stream.size() - Pipe.stats().Applied;
    }
    Res.BacklogEnd = Stream.size() - Pipe.stats().Applied;
    Res.Hi = Stream.size();
    trace::On.store(false);
    // Drain so the next phase starts from an empty queue, and make the
    // newest version visible to the marking logic.
    Pipe.flush();
    uint64_t Seq = 0;
    Graph Tip = Chain.acquire(Seq);
    Log.mark(Seq, now_ns());
    if (Ph == 0)
      Measure.store(false); // Query latency is reported at the reference rate.
  }
  pthread_setaffinity_np(pthread_self(), sizeof(MainCpus), &MainCpus);
  ReaderStop.store(true);
  Reader.join();
  const auto Stats = Pipe.stats();
  const double RssMb = peak_rss_mb();

  // Visibility latency of every directed edge: due time to the first
  // acquired snapshot containing its batch.
  const uint64_t NB = Log.Count.load();
  auto Visible = [&](size_t Lo, size_t Hi) {
    std::vector<double> V;
    V.reserve(Hi - Lo);
    size_t B = std::upper_bound(Log.End.begin(), Log.End.begin() + NB, Lo) -
               Log.End.begin();
    for (size_t I = Lo; I < Hi; ++I) {
      while (B < NB && Log.End[B] <= I)
        ++B;
      V.push_back(B < NB && Log.VisibleNs[B]
                      ? (static_cast<double>(Log.VisibleNs[B]) - DueNs[I]) *
                            1e-6
                      : 1e9);
    }
    return V;
  };
  std::vector<double> RefVis = Visible(PhaseRes[0].Lo, PhaseRes[0].Hi);
  windowed RefVisW(99, 1 << 16); // Windows of due time.
  for (size_t I = 0; I < RefVis.size(); ++I) {
    R.check(RefVis[I] <= P.LimitMs, "serve edge missed the visibility limit",
            /*WrongAnswer=*/false);
    const size_t E = PhaseRes[0].Lo + I;
    if (I > 0 && (DueNs[E] - DueNs[PhaseRes[0].Lo]) / kServeWindowNs !=
                     (DueNs[E - 1] - DueNs[PhaseRes[0].Lo]) / kServeWindowNs)
      RefVisW.roll();
    RefVisW.add(static_cast<uint64_t>(RefVis[I] * 1e6));
  }
  RefVisW.roll();
  double MaxRate = 0, MaxApplied = 0;
  std::string LadderNote;
  for (size_t Ph = 0; Ph < Phases.size(); ++Ph) {
    std::vector<double> V = Visible(PhaseRes[Ph].Lo, PhaseRes[Ph].Hi);
    const double LastMs = V.empty() ? 0 : V.back();
    const double P99 = pct(V, 99);
    const bool Growing =
        PhaseRes[Ph].BacklogEnd > PhaseRes[Ph].BacklogMid + Phases[Ph].Rate * 0.02;
    const bool Pass = P99 <= P.LimitMs && !Growing && !PhaseRes[Ph].Refused;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s%.0f/s: p99 %.2f ms, backlog %llu->%llu%s",
                  Ph ? "; " : "", Phases[Ph].Rate, P99,
                  static_cast<unsigned long long>(PhaseRes[Ph].BacklogMid),
                  static_cast<unsigned long long>(PhaseRes[Ph].BacklogEnd),
                  Pass ? "" : " FAIL");
    LadderNote += Buf;
    if (Pass && Phases[Ph].Rate >= MaxRate) {
      // The phase's edges over the time from its first due send to its
      // last edge becoming visible.
      MaxRate = Phases[Ph].Rate;
      const double Secs =
          (LastMs * 1e6 + (DueNs[PhaseRes[Ph].Hi - 1] - DueNs[PhaseRes[Ph].Lo])) * 1e-9;
      MaxApplied = Secs > 0 ? (PhaseRes[Ph].Hi - PhaseRes[Ph].Lo) / Secs : 0;
    }
  }

  // Oracle: final graph and every reader answer, exactly, at the prefix of
  // the stream its snapshot contained.
  Graph Final = Chain.acquire();
  adjacency_oracle Or(NV, Initial, Stream);
  R.check(Final.num_edges() == Or.Dst.size(), "serve final edge count");
  {
    bool Ok = true;
    size_t Rows = 0;
    Final.vertices().foreach_seq([&](const typename Graph::vertex_entry_t &E) {
      const vertex_id V = E.first;
      if (V >= NV) {
        Ok = false;
        return;
      }
      size_t I = Or.Off[V];
      bool RowOk = E.second.size() == Or.Off[V + 1] - Or.Off[V];
      E.second.foreach_seq([&](vertex_id U) {
        RowOk = RowOk && I < Or.Off[V + 1] && Or.Dst[I] == U;
        ++I;
      });
      Ok = Ok && RowOk;
      Rows += E.second.size() > 0;
    });
    size_t WantRows = 0;
    for (size_t V = 0; V < NV; ++V)
      WantRows += Or.Off[V + 1] > Or.Off[V];
    R.check(Ok && Rows == WantRows, "serve final neighbour lists");
  }
  {
    if (O.Corrupt && !Answers.empty())
      Answers[Answers.size() / 2].IdSum += 1;
    // Prefix (directed edges applied) of every version seq.
    auto PrefixOf = [&](uint64_t Seq) -> uint64_t {
      return Seq <= 1 ? 0 : Log.End[Seq - 2];
    };
    std::vector<size_t> Order(Answers.size());
    std::iota(Order.begin(), Order.end(), 0);
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Answers[A].Seq < Answers[B].Seq;
    });
    // Degree of every vertex at the current prefix, advanced by events.
    std::vector<std::pair<uint32_t, vertex_id>> Events;
    std::vector<uint64_t> Deg(NV, 0);
    for (size_t V = 0; V < NV; ++V)
      for (uint64_t I = Or.Off[V]; I < Or.Off[V + 1]; ++I) {
        if (Or.First[I] == 0)
          ++Deg[V];
        else
          Events.push_back({Or.First[I], static_cast<vertex_id>(V)});
      }
    std::sort(Events.begin(), Events.end());
    size_t EvPos = 0;
    for (size_t Idx : Order) {
      const serve_query &Q = Answers[Idx];
      const uint64_t Hi = PrefixOf(Q.Seq);
      while (EvPos < Events.size() && Events[EvPos].first <= Hi)
        ++Deg[Events[EvPos++].second];
      serve_query W{Q.Seq, Q.V, 0, 0, 0};
      for (uint64_t I = Or.Off[Q.V]; I < Or.Off[Q.V + 1]; ++I)
        if (Or.First[I] <= Hi) {
          ++W.Deg;
          W.IdSum += Or.Dst[I];
          W.Paths2 += Deg[Or.Dst[I]];
        }
      R.check(W.Deg == Q.Deg && W.IdSum == Q.IdSum && W.Paths2 == Q.Paths2,
              "serve 2-hop answer");
    }
  }

  const double BytesPerEdge =
      static_cast<double>(Final.size_in_bytes()) / Final.num_edges();
  if (!O.Trace) {
    const std::string VisNote =
        "quietest of " + std::to_string(RefVisW.windows()) +
        " windows of 0.1 s; " + std::to_string(RefVisW.samples()) +
        " edges at " + std::to_string(static_cast<long>(P.RefRate)) + "/s";
    auto QNote = [&](const windowed &W) {
      return "quietest of " + std::to_string(W.windows()) +
             " windows of 0.1 s; " + std::to_string(W.samples()) +
             " queries at the reference rate";
    };
    R.add("setup_s", SetupS, "s", "median of 3 set-ups incl. warm-up");
    R.add("peak_rss_mb", RssMb, "MB");
    R.add("bytes_per_entry", BytesPerEdge, "B",
          "final graph size_in_bytes per directed edge");
    R.add("throughput", MaxApplied, "1/s",
          "serve.max_ingest_eps: submitted edges/s in the highest passing "
          "ladder phase (" + LadderNote + ")");
    R.add("request_ms_p50", QueryLat.p50() * 1e-6, "ms",
          "serve.query_us_p50; " + QNote(QueryLat));
    R.add("request_ms_tail", QueryLat.tail() * 1e-6, "ms",
          "serve.query_us_p99; " + QNote(QueryLat));
    R.add("update_ms_p50", RefVisW.p50() * 1e-6, "ms",
          "serve.visible_ms_p50; " + VisNote);
    R.add("update_ms_tail", RefVisW.tail() * 1e-6, "ms",
          "serve.visible_ms_p99; " + VisNote);
  } else {
    std::vector<double> IM = InsertMs;
    R.add("serving.acquire_us_p50", AcquireLat.p50() * 1e-3, "us");
    R.add("serving.acquire_us_p99", AcquireLat.tail() * 1e-3, "us");
    R.add("serving.submit_wait_us_p99", pct(SubmitWait, 99) * 1e-3, "us");
    R.add("serving.batch_edges_mean",
          Stats.Batches ? static_cast<double>(Stats.Applied) / Stats.Batches
                        : 0,
          "count");
    R.add("serving.versions_per_s", Stats.Batches / RefSecs, "1/s");
    R.add("serving.generator_late_ms_max", PhaseRes[0].LateMsMax, "ms",
          "how late the open-loop producer ran");
    R.add("graph.insert_edges_ms_p50", pct(IM, 50), "ms");
    R.add("graph.insert_edges_ms_p99",
          pct(IM, supports(IM.size(), 99) ? 99 : 90), "ms");
    R.add("graph.query_us_p50", GraphLat.p50() * 1e-3, "us",
          "2-hop query without acquire");
    trace::On.store(true);
    std::vector<vertex_id> Flat;
    std::vector<std::pair<size_t, size_t>> Blocks;
    for (size_t I = 0; I < Initial.size();) {
      size_t J = I;
      while (J < Initial.size() && Initial[J].first == Initial[I].first)
        ++J;
      for (size_t K = I; K < J; K += 64)
        Blocks.push_back({Flat.size() + (K - I), std::min<size_t>(64, J - K)});
      for (size_t K = I; K < J; ++K)
        Flat.push_back(Initial[K].second);
      I = J;
    }
    probe_encoder<diff_encoder<set_entry<vertex_id>>>(R, "diff", Blocks, Flat);
    probe_encoder<raw_encoder<set_entry<vertex_id>>>(R, "raw", Blocks, Flat);
    trace::On.store(false);
  }
  std::string Rates;
  for (double Rate : P.Ladder)
    Rates += (Rates.empty() ? "" : ", ") + std::to_string(static_cast<long>(Rate));
  R.WorkloadConfig =
      "\"vertices\": " + std::to_string(NV) +
      ", \"initial_directed_edges\": " + std::to_string(Initial.size()) +
      ", \"final_directed_edges\": " + std::to_string(Final.num_edges()) +
      ", \"resident_mb\": " +
      std::to_string(Final.size_in_bytes() / 1048576.0) +
      ", \"l2_mb_per_core\": 2, \"producers\": 1, \"readers\": 1, "
      "\"writer_threads\": 1, \"reference_rate\": " +
      std::to_string(static_cast<long>(P.RefRate)) +
      ", \"ladder_rates\": [" + Rates + "], \"visibility_limit_ms\": " +
      std::to_string(P.LimitMs) +
      ", \"answers_checked\": " + std::to_string(Answers.size()) +
      ", \"batches\": " + std::to_string(NB);
  if (O.Trace) {
    double Tr = TracedQ.empty() ? 0 : pct(TracedQ, 50);
    double Un = UntracedQ.empty() ? 0 : pct(UntracedQ, 50);
    add_layer_self_times(R, Un > 0 ? Tr / Un - 1 : 0);
  }
}

//===----------------------------------------------------------------------===//
// Per-layer metrics a workload does not produce, and the output.
//===----------------------------------------------------------------------===//

void add_cross_workload_zeros(const std::string &W, result &R) {
  if (W != "setalg")
    add_zero(R, {{"core.build_ms", "ms"},
                 {"core.union_ms", "ms"},
                 {"core.union_skew_ms", "ms"},
                 {"core.intersect_ms", "ms"},
                 {"core.difference_ms", "ms"},
                 {"core.multi_insert_ms", "ms"},
                 {"core.filter_ms", "ms"},
                 {"core.reduce_ms", "ms"},
                 {"core.merge_fallbacks_per_round", "count"},
                 {"parallel.speedup.build", "x"},
                 {"parallel.speedup.union", "x"},
                 {"parallel.speedup.multi_insert", "x"},
                 {"parallel.forks_per_round", "count"},
                 {"parallel.steals_per_round", "count"},
                 {"parallel.failed_steals_per_round", "count"},
                 {"parallel.join_parks_per_round", "count"},
                 {"parallel.cpu_per_wall", "ratio"},
                 {"alloc.node_allocs_per_round", "count"},
                 {"alloc.refill_batches_per_round", "count"},
                 {"alloc.slab_carves", "count"},
                 {"alloc.live_bytes_per_entry", "B"}});
  if (W != "point") {
    std::vector<std::pair<const char *, const char *>> Z;
    static const char *const Names[] = {
        "api.find_us_p50",      "api.find_us_p99",   "api.aug_range_us_p50",
        "api.aug_range_us_p99", "api.range_us_p50",  "api.range_us_p99",
        "api.insert_us_p50",    "api.insert_us_p99", "api.remove_us_p50",
        "api.remove_us_p99"};
    for (const char *N : Names)
      Z.push_back({N, "us"});
    Z.push_back({"alloc.node_allocs_per_write", "count"});
    add_zero(R, Z);
  }
  if (W != "serve")
    add_zero(R, {{"serving.acquire_us_p50", "us"},
                 {"serving.acquire_us_p99", "us"},
                 {"serving.submit_wait_us_p99", "us"},
                 {"serving.batch_edges_mean", "count"},
                 {"serving.versions_per_s", "1/s"},
                 {"serving.generator_late_ms_max", "ms"},
                 {"graph.insert_edges_ms_p50", "ms"},
                 {"graph.insert_edges_ms_p99", "ms"},
                 {"graph.query_us_p50", "us"}});
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    std::string S(reinterpret_cast<const char *>(Regs), sizeof(Regs));
    S = S.c_str();
    while (!S.empty() && S.back() == ' ')
      S.pop_back();
    size_t Lead = S.find_first_not_of(' ');
    return Lead == std::string::npos ? "unknown" : S.substr(Lead);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string config_json(const options &O, const result &R) {
  const char *Threads = std::getenv("CPAM_NUM_THREADS");
  auto Flag = [](const char *Name, long V) {
    return std::string(", \"") + Name + "\": " + std::to_string(V);
  };
  std::string S = "{\"config\": {\"workload\": \"" + O.Workload +
                  "\", \"seed\": " + std::to_string(O.Seed) +
                  ", \"seconds\": " + std::to_string(O.Seconds) +
                  ", \"trace\": " + (O.Trace ? "1" : "0") +
                  ", \"tiny\": " + (O.Tiny ? "true" : "false") +
                  ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                  ", \"workers\": " + std::to_string(par::num_workers()) +
                  ", \"CPAM_NUM_THREADS\": \"" +
                  json_escape(Threads ? Threads : "") +
                  "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"" +
                  ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
#ifdef CPAM_POOL_ALLOC
  S += Flag("CPAM_POOL_ALLOC", CPAM_POOL_ALLOC);
#endif
#ifdef CPAM_FLAT_FASTPATH
  S += Flag("CPAM_FLAT_FASTPATH", CPAM_FLAT_FASTPATH);
#endif
#ifdef CPAM_LOCKFREE_SCHED
  S += Flag("CPAM_LOCKFREE_SCHED", CPAM_LOCKFREE_SCHED);
  S += Flag("lockfree_sched_runtime", par::lockfree_sched() ? 1 : 0);
#endif
#ifdef CPAM_METRICS
  S += Flag("CPAM_METRICS", CPAM_METRICS);
#endif
#ifdef CPAM_FAILPOINTS_ENABLED
  S += Flag("CPAM_FAILPOINTS_ENABLED", CPAM_FAILPOINTS_ENABLED);
#endif
  S += ", \"cold_op_ms\": " + std::to_string(Cold.OpMs);
  S += ", \"" + O.Workload + "\": {" + R.WorkloadConfig + "}}}";
  return S;
}

bool parse_args(int Argc, char **Argv, options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--workload" && (V = Next()))
      O.Workload = V;
    else if (A == "--seed" && (V = Next()))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds" && (V = Next()))
      O.Seconds = std::atof(V);
    else if (A == "--trace" && (V = Next()))
      O.Trace = std::atoi(V) != 0;
    else if (A == "--trace-out" && (V = Next()))
      O.TraceOut = V;
    else if (A == "--tiny")
      O.Tiny = true;
    else if (A == "--corrupt")
      O.Corrupt = true;
    else
      return false;
  }
  return (O.Workload == "setalg" || O.Workload == "point" ||
          O.Workload == "serve") &&
         O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  options O;
  if (!parse_args(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload setalg|point|serve --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--corrupt] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  result R;
  if (O.Workload == "setalg")
    run_setalg(O, R);
  else if (O.Workload == "point")
    run_point(O, R);
  else
    run_serve(O, R);
  if (O.Trace) {
    R.add("parallel.cold_op_ms", Cold.OpMs, "ms",
          "first parallel op of the process (wall)");
    R.add("parallel.cold_cpu_per_wall", Cold.CpuPerWall, "ratio");
    add_cross_workload_zeros(O.Workload, R);
    if (!O.TraceOut.empty())
      trace::write_file(O.TraceOut);
  }

  for (const metric &M : R.Metrics)
    std::printf("  %-40s %16.6f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  std::printf("  %-40s %16.6f %-6s %llu of %llu checked ops\n", "failed_frac",
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0.0,
              "frac", static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const std::string &E : R.Errors)
    std::printf("  FAILED: %s\n", E.c_str());
  std::printf("%s\n", config_json(O, R).c_str());

  const bool Correct = R.Wrong == 0 && R.Attempted > 0;
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(R.Attempted) +
                  ", \"failed\": " + std::to_string(R.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", R.Metrics[I].Value);
    J += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
