#ifndef MESA_COMMON_METRICS_H_
#define MESA_COMMON_METRICS_H_

/// Low-overhead metrics registry: named atomic counters, value
/// distributions (count/sum/min/max and approximate p50/p99 from a
/// log-scale histogram), and RAII scoped-span timers that nest through a
/// thread-local trace path (e.g. "mcimr/round/score_candidate/cmi").
///
/// Use the macros, not the raw API, at instrumentation sites:
///
///   MESA_COUNT("info/cmi_evals");            // += 1
///   MESA_COUNT_N("kg/values_linked", n);     // += n
///   MESA_RECORD("qa/candidates", count);     // value distribution
///   MESA_SPAN("cmi");                        // times this scope (ns)
///
/// Each macro caches its registry handle in a function-local static, so
/// the name is hashed once per call site, and a counter bump is a single
/// relaxed atomic add. The runtime switch `SetEnabled(false)` turns
/// collection into cheap early-outs, which is how the benches measure the
/// enabled-vs-disabled overhead; the registry itself (snapshot/reset/JSON)
/// stays readable either way.
///
/// Thread-safety: everything here is safe to call concurrently. Spans
/// track their path per thread; `ThreadPool::Run` installs the caller's
/// span path in its workers (via `PathGuard`), so span paths are
/// invariant to the pool size. See docs/observability.md.

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mesa {
namespace metrics {

/// Monotonic event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Streaming distribution of double values. Exact count/sum/min/max;
/// p50/p99 are estimated from a log-scale histogram (4 buckets per
/// octave, so quantiles carry <= ~9% relative error for values > 1;
/// values <= 1 share one underflow bucket). Span timers record
/// nanoseconds, which the histogram resolves from 1ns up to ~2^64ns.
class Distribution {
 public:
  // 4 buckets per octave covers [1, 2^64) in 252 buckets + underflow.
  static constexpr size_t kBuckets = 253;

  void Record(double v);

  struct Stats {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };
  /// A consistent-enough snapshot for reporting (individual fields are
  /// loaded atomically; concurrent writers may land between loads).
  Stats GetStats() const;

  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// Whether collection is active. Macros early-out when false; the
/// registry itself stays readable either way.
bool Enabled();
void SetEnabled(bool enabled);

/// Finds or creates a metric. Returned references live for the process
/// (Reset zeroes values but never invalidates handles), so call sites
/// may cache them in static storage.
Counter& GetCounter(std::string_view name);
Distribution& GetDistribution(std::string_view name);

/// Current value of a counter, or 0 if it has never been touched (the
/// lookup does not create it). Handy for benches and tests.
uint64_t CounterValue(std::string_view name);

/// One completed traced request (mesa_serve gives every request a unique
/// trace ID; see docs/serving.md). Span distributions aggregate by path —
/// bounded cardinality — so per-request identity lives here instead: a
/// bounded ring of the most recent requests, included in the snapshot.
struct TraceEvent {
  std::string id;        ///< unique per request, e.g. "t-17-a3f9".
  std::string name;      ///< root span path of the request, e.g. "serve/explain".
  bool ok = true;        ///< whether the request produced a success reply.
  uint64_t duration_ns = 0;
};

/// Appends to the trace ring (thread-safe; oldest events drop once the
/// ring holds kTraceLogCapacity = 4096). No-op when collection is off.
void RecordTrace(TraceEvent event);

/// Copy of the ring, oldest first.
std::vector<TraceEvent> TraceEvents();

/// The calling thread's current trace ID ("" outside any traced request).
/// Propagated into pool workers the same way span paths are, so work done
/// on behalf of a request carries its ID on any thread.
const std::string& CurrentTraceId();

/// Installs `id` as this thread's trace ID for a scope.
class TraceIdGuard {
 public:
  explicit TraceIdGuard(const std::string& id);
  ~TraceIdGuard();
  TraceIdGuard(const TraceIdGuard&) = delete;
  TraceIdGuard& operator=(const TraceIdGuard&) = delete;

 private:
  std::string saved_;
};

/// Point-in-time copy of every metric, names sorted.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, Distribution::Stats>> distributions;
  std::vector<TraceEvent> traces;
};
Snapshot TakeSnapshot();

/// Zeroes every counter and distribution and clears the trace ring
/// (handles stay valid).
void ResetAll();

/// {"counters":{name:value,...},
///  "distributions":{name:{"count":..,"sum":..,"min":..,"max":..,
///                         "p50":..,"p99":..},...},
///  "traces":[{"id":..,"name":..,"ok":..,"ns":..},...]}
/// Distribution values for spans are nanoseconds.
std::string ToJson(const Snapshot& snapshot);
std::string SnapshotJson();  // ToJson(TakeSnapshot())

/// The calling thread's current span path ("" outside any span).
const std::string& CurrentPath();

/// Replaces this thread's span path for a scope. The thread pool uses
/// this to carry the submitting thread's path into workers so that spans
/// opened inside parallel loops nest under the caller's span no matter
/// which thread runs them.
class PathGuard {
 public:
  explicit PathGuard(const std::string& path);
  ~PathGuard();
  PathGuard(const PathGuard&) = delete;
  PathGuard& operator=(const PathGuard&) = delete;

 private:
  std::string saved_;
};

/// RAII span timer: appends "/name" to the thread's trace path on entry
/// and records the elapsed nanoseconds into the distribution named by
/// the full path on exit. Use via MESA_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  size_t saved_length_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace metrics
}  // namespace mesa

#define MESA_COUNT(name) MESA_COUNT_N(name, 1)

#define MESA_COUNT_N(name, n)                                         \
  do {                                                                \
    if (::mesa::metrics::Enabled()) {                                 \
      static ::mesa::metrics::Counter& mesa_metrics_counter =         \
          ::mesa::metrics::GetCounter(name);                          \
      mesa_metrics_counter.Add(static_cast<uint64_t>(n));             \
    }                                                                 \
  } while (0)

#define MESA_RECORD(name, value)                                      \
  do {                                                                \
    if (::mesa::metrics::Enabled()) {                                 \
      static ::mesa::metrics::Distribution& mesa_metrics_dist =       \
          ::mesa::metrics::GetDistribution(name);                     \
      mesa_metrics_dist.Record(static_cast<double>(value));           \
    }                                                                 \
  } while (0)

#define MESA_METRICS_CONCAT_IMPL(a, b) a##b
#define MESA_METRICS_CONCAT(a, b) MESA_METRICS_CONCAT_IMPL(a, b)
#define MESA_SPAN(name)                              \
  ::mesa::metrics::ScopedSpan MESA_METRICS_CONCAT(   \
      mesa_metrics_span_, __LINE__)(name)

#endif  // MESA_COMMON_METRICS_H_
