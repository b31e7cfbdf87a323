#ifndef MESA_BENCH_BENCH_UTIL_H_
#define MESA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/mesa.h"
#include "datagen/registry.h"

namespace mesa {
namespace bench {

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The six methods of Section 5.
enum class Method {
  kBruteForce,
  kMesaMinus,  ///< MCIMR without pruning
  kMesa,
  kTopK,
  kLr,
  kHypDb,
};

const char* MethodName(Method m);
std::vector<Method> AllMethods();

/// One method's output on one query.
struct MethodResult {
  Explanation explanation;
  double seconds = 0.0;
  bool ok = true;
  std::string error;
};

/// Runs every baseline on an already prepared query. `unpruned` carries all
/// candidate indices (for MESA-); `pruned` the post-pruning set used by the
/// other methods (as in the paper's setup).
std::map<Method, MethodResult> RunAllMethods(
    const QueryAnalysis& analysis, const std::vector<size_t>& pruned,
    const std::vector<size_t>& unpruned, size_t k = 5,
    bool include_brute_force = true);

/// Quality scoring — the user-study substitution (see DESIGN.md): a
/// deterministic stand-in for the MTurk 1–5 ratings of Table 3. Ground
/// truth is a list of factor groups, each "alt1|alt2|..."; an explanation
/// covering more groups with fewer irrelevant/redundant picks scores
/// higher. Empty explanations score 1 (the "does not make sense" floor).
double QualityScore(const std::vector<std::string>& explanation,
                    const std::vector<std::string>& ground_truth_groups);

/// Pretty fixed-width cell.
std::string Pad(const std::string& s, size_t width);

/// "{a, b}" for a name list.
std::string SetToString(const std::vector<std::string>& names);

/// Builds a dataset + Mesa with standard benchmark options. Flights rows
/// default small enough for interactive benching.
struct BenchWorld {
  GeneratedDataset dataset;
  std::unique_ptr<Mesa> mesa;
};
BenchWorld MakeBenchWorld(DatasetKind kind, size_t rows = 0,
                          MesaOptions options = {});

/// Default row counts used by the report benches (kept below the paper's
/// full sizes so the whole suite runs in minutes; Fig. 5 sweeps beyond).
size_t BenchRows(DatasetKind kind);

/// Wall-time of `fn` at each global pool size in `thread_counts`
/// (default {1, 2, hardware_concurrency}), restoring the previous pool
/// size afterwards. The parallel layer is deterministic, so each timing
/// runs the same computation — the ratio IS the speedup.
struct ThreadTiming {
  size_t threads = 0;
  double seconds = 0.0;
};
std::vector<ThreadTiming> TimeAtThreadCounts(
    const std::function<void()>& fn, std::vector<size_t> thread_counts = {});

/// One-line JSON record for the perf trajectory:
/// {"bench":"<label>","thread_sweep":[{"threads":1,"seconds":...},...]}
std::string ThreadSweepJson(const std::string& label,
                            const std::vector<ThreadTiming>& timings);

/// Estimator-evaluation counters read from the metrics registry (see
/// docs/observability.md). Take a reading before and after a phase and
/// subtract to attribute the work to that phase.
struct EvalCounts {
  uint64_t cmi = 0;       ///< info/cmi_evals
  uint64_t mi = 0;        ///< info/mi_evals
  uint64_t entropy = 0;   ///< info/entropy_evals
  uint64_t ci_tests = 0;  ///< info/ci_tests
};
EvalCounts ReadEvalCounts();
EvalCounts operator-(const EvalCounts& a, const EvalCounts& b);
/// "cmi=812 mi=40 H=120 ci=6"
std::string EvalCountsToString(const EvalCounts& c);

/// Cumulative wall time spent inside the information-theoretic kernels,
/// in seconds: the sum of every span distribution whose final path
/// segment is cmi / mi / entropy / cond_entropy (span sums are
/// nanoseconds; see docs/observability.md). Take a reading before and
/// after a phase and subtract.
double InfoKernelSeconds();

/// Compact rendering of the sufficient-statistics cache counters:
/// "scalar <hits>/<misses> cube <hits>/<misses> evict <n>". Pass a
/// before/after delta for per-phase numbers (reads info_cache::GetStats()).
struct InfoCacheDelta {
  uint64_t scalar_hits = 0;
  uint64_t scalar_misses = 0;
  uint64_t cube_hits = 0;
  uint64_t cube_misses = 0;
  uint64_t evictions = 0;
};
InfoCacheDelta ReadInfoCacheCounters();
InfoCacheDelta operator-(const InfoCacheDelta& a, const InfoCacheDelta& b);
std::string InfoCacheDeltaToString(const InfoCacheDelta& d);

}  // namespace bench
}  // namespace mesa

#endif  // MESA_BENCH_BENCH_UTIL_H_
