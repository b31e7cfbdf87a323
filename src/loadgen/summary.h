#ifndef MESA_LOADGEN_SUMMARY_H_
#define MESA_LOADGEN_SUMMARY_H_

/// Result reporting for the load driver: latency percentiles, rates,
/// counter deltas, and the machine-readable JSON summary the CI and
/// multi-core scaling runs publish (schema: docs/observability.md).

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "loadgen/driver.h"
#include "loadgen/latency.h"

namespace mesa {
namespace loadgen {

using CounterMap = std::map<std::string, uint64_t>;

/// Counter prefixes the harness reports by default: daemon protocol
/// traffic and the sufficient-statistics cache.
const std::vector<std::string>& DefaultCounterPrefixes();

/// Current values of every process-local metrics counter whose name
/// starts with one of `prefixes`.
CounterMap ReadProcessCounters(const std::vector<std::string>& prefixes);

/// Same, but from a daemon's `metrics`-verb JSON snapshot — how the
/// harness reads counters when the service under load is a separate
/// process.
Result<CounterMap> ParseCountersJson(const std::string& metrics_json,
                                     const std::vector<std::string>& prefixes);

/// after - before, keyed by name; names missing from `before` count
/// from zero, names missing from `after` are dropped.
CounterMap CounterDelta(const CounterMap& before, const CounterMap& after);

struct WorkloadSummary {
  std::string mode;  ///< "closed" or "open".
  uint64_t seed = 0;
  size_t workers = 0;
  size_t distinct_queries = 0;
  size_t attempted = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t deadline_exceeded = 0;
  size_t cancelled = 0;
  size_t errors = 0;
  double shed_rate = 0.0;  ///< shed / attempted.
  /// The per-request deadline the run carried (0 = none).
  uint64_t deadline_ms = 0;
  /// deadline_exceeded / attempted — how often the budget fired.
  double deadline_hit_rate = 0.0;
  /// Cancellation-unwind latency over deadline_exceeded replies: how far
  /// past its deadline each reply arrived (client-side view; bounded by
  /// the checkpoint spacing plus transport). Empty when no deadlines hit.
  LatencyStats unwind;
  double wall_seconds = 0.0;
  double qps = 0.0;  ///< attempted / wall_seconds.
  /// Over successful replies only — service latency, not shed latency
  /// (sheds return in microseconds by design and would drag every
  /// percentile down). Open-loop latency runs from each request's due
  /// time, so it includes any wait for a free worker.
  LatencyStats latency;
  /// Open loop only: generator lateness over every request, i.e. how
  /// long after its due time a worker picked it up. Large values mean
  /// the run had too few workers for its rate.
  LatencyStats late;
  uint64_t request_fingerprint = 0;
  uint64_t reply_fingerprint = 0;
  CounterMap counter_deltas;
};

/// Folds a run into the summary (counter deltas are the caller's —
/// process-local or daemon-side, depending on the target).
WorkloadSummary Summarize(const DriverOptions& options,
                          const RunResult& result, size_t distinct_queries,
                          CounterMap counter_deltas = {});

/// Human-readable multi-line rendering.
std::string SummaryToText(const WorkloadSummary& summary);

/// One JSON object (the docs/observability.md "workload summary"
/// schema). Fingerprints render as "0x..." strings: they are 64-bit
/// and must not round-trip through a double.
std::string SummaryToJson(const WorkloadSummary& summary);

/// Writes SummaryToJson + trailing newline to `path` (truncates).
Status WriteSummaryJsonFile(const WorkloadSummary& summary,
                            const std::string& path);

}  // namespace loadgen
}  // namespace mesa

#endif  // MESA_LOADGEN_SUMMARY_H_
