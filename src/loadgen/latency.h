#ifndef MESA_LOADGEN_LATENCY_H_
#define MESA_LOADGEN_LATENCY_H_

/// Per-worker latency logs and exact percentile math for the load
/// driver (docs/performance.md §7). Each worker appends to its own log
/// — no shared state, no locks, no atomics on the hot path — and the
/// logs are merged only after every worker has joined.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mesa {
namespace loadgen {

/// One completed request, as observed by the worker that issued it.
struct LatencyRecord {
  size_t worker = 0;       ///< issuing worker.
  size_t request = 0;      ///< per-worker index (closed) / global (open).
  size_t query_index = 0;  ///< index into the workload's query pool.
  /// Offset from run start of the moment the request was due: its
  /// scheduled arrival in open loop, its pickup in closed loop.
  uint64_t start_ns = 0;
  /// Due time to reply, so in open loop the time a request waited for a
  /// free worker counts (no coordinated omission).
  uint64_t duration_ns = 0;
  /// Generator lateness: pickup minus due time (always 0 in closed loop).
  uint64_t late_ns = 0;
  bool ok = false;         ///< the reply's "ok" field.
  std::string code;        ///< wire code when !ok ("resource_exhausted", ...).
  std::string report;      ///< reply report text (when capture_replies).
  std::string error;       ///< reply error text (when capture_replies).
};

/// One worker's log. Owned and written by exactly one thread during a
/// run, which is what makes it lock-free by construction.
struct WorkerLog {
  std::vector<LatencyRecord> records;
};

/// Nearest-rank percentile over an ascending-sorted sample vector:
/// the value at rank ceil(pct/100 * N) (1-based), clamped into range.
/// Exact — no interpolation — so small fixtures pin it by hand.
/// Returns 0 for an empty vector.
double PercentileNearestRank(const std::vector<double>& sorted_ascending,
                             double pct);

struct LatencyStats {
  size_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

/// Sorts a copy of `samples_ms` and fills the stats (all zero for an
/// empty input).
LatencyStats ComputeLatencyStats(std::vector<double> samples_ms);

}  // namespace loadgen
}  // namespace mesa

#endif  // MESA_LOADGEN_LATENCY_H_
