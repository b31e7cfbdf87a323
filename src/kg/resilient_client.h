#ifndef MESA_KG_RESILIENT_CLIENT_H_
#define MESA_KG_RESILIENT_CLIENT_H_

/// ResilientKgClient is what the extraction pipeline actually talks to:
/// it wraps a KgEndpoint with
///
///   * the retry policy of common/retry.h (exponential backoff, seeded
///     jitter, per-call deadline budget),
///   * a shared circuit breaker (closed -> open -> half-open), and
///   * a positive/negative response cache. Small, high-leverage
///     responses are cached: Resolve results and permanently failed
///     lookups (a retry-exhausted transient failure is not cached, so a
///     later call may still succeed). Bulk Properties payloads are
///     deliberately NOT retained — they are cheap to refetch next to the
///     copy-and-hold cost of an unbounded payload cache.
///
/// Every lookup is visible through the metrics layer: kg.lookups,
/// kg.lookup.retries, kg.lookup.failures, kg.cache.hits / kg.cache.misses,
/// kg.breaker.state and the kg.breaker.opened/half_open/closed transition
/// counters, plus the kg_lookup span. See docs/robustness.md and
/// docs/observability.md.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/retry.h"
#include "kg/endpoint.h"

namespace mesa {

/// Tuning of one client instance.
struct KgClientOptions {
  RetryOptions retry;
  BreakerOptions breaker = {/*failure_threshold=*/5, /*cooldown_ms=*/500,
                            /*metric_prefix=*/"kg.breaker"};
  /// Cache Resolve results and permanently failed responses.
  bool enable_cache = true;
};

class ResilientKgClient {
 public:
  explicit ResilientKgClient(std::shared_ptr<KgEndpoint> endpoint,
                             KgClientOptions options = {});

  /// The endpoint operations, made reliable-or-failed-for-good. Identical
  /// inputs return identical results regardless of thread count or call
  /// order (retry schedules are keyed on the call, not on shared state).
  Result<LinkResult> Resolve(const std::string& text,
                             const EntityLinkerOptions& options);
  Result<std::vector<KgProperty>> Properties(EntityId id);

  /// Cumulative bookkeeping; snapshot before/after a phase and subtract
  /// to attribute work (the extractor feeds ExtractionStats this way).
  struct Counters {
    uint64_t calls = 0;          ///< client-level calls (cache hits included).
    uint64_t attempts = 0;       ///< endpoint attempts made.
    uint64_t calls_retried = 0;  ///< calls needing at least one retry.
    uint64_t failures = 0;       ///< calls that ultimately failed.
    uint64_t cache_hits = 0;
  };
  Counters counters() const;

  /// A fresh client over a cloned endpoint: same options, own virtual
  /// clock / breaker / cache, zeroed counters. The extractor gives each
  /// distinct entity value its own shard client so the value's retry and
  /// fault sequence is a pure function of the value — identical at any
  /// thread count — then folds the shard counters back via
  /// AbsorbCounters.
  std::unique_ptr<ResilientKgClient> CloneForShard() const;

  /// Adds `c` into this client's cumulative counters (shard absorption).
  void AbsorbCounters(const Counters& c);

  CircuitBreaker& breaker() { return breaker_; }
  VirtualClock& clock() { return clock_; }
  const KgClientOptions& options() const { return options_; }

 private:
  using CachedValue =
      std::variant<Status, LinkResult, std::vector<KgProperty>>;

  /// Runs `attempt` (any callable returning Result<T>) under retry +
  /// breaker + cache. `call_key` is a 64-bit mix of the operation tag and
  /// its arguments; it keys both the response cache and the retry jitter
  /// stream. With the ~10^3–10^4 distinct lookups of one extraction the
  /// chance of a 64-bit collision aliasing two cache entries is
  /// negligible (birthday bound ~1e-12). `kCachePayload` opts the
  /// operation's *successful* responses into the cache; permanent
  /// failures are negatively cached either way.
  template <typename T, bool kCachePayload, typename Attempt>
  Result<T> Call(uint64_t call_key, const Attempt& attempt);

  std::shared_ptr<KgEndpoint> endpoint_;
  KgClientOptions options_;
  VirtualClock clock_;
  CircuitBreaker breaker_;

  mutable std::mutex cache_mu_;
  std::unordered_map<uint64_t, CachedValue> cache_;

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> calls_retried_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> cache_hits_{0};
};

}  // namespace mesa

#endif  // MESA_KG_RESILIENT_CLIENT_H_
