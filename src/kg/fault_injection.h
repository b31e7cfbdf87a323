#ifndef MESA_KG_FAULT_INJECTION_H_
#define MESA_KG_FAULT_INJECTION_H_

/// Deterministic fault injection for KgEndpoint — the harness that makes
/// the remote-KG failure surface (timeouts, rate limits, truncated
/// responses, outages, latency) testable and exactly reproducible.
///
/// A FaultPlan is parsed from a small `key=value` grammar (see
/// docs/robustness.md), e.g.
///
///   "seed=42; timeout=0.15; rate_limit=0.1; latency=1:5;
///    properties.truncate=0.2"
///
/// Every fault decision is a pure function of
/// (plan seed, operation, argument, per-argument attempt number) — no
/// shared RNG sequence — so the same plan produces the same faults no
/// matter the thread count or call interleaving, and every retry of the
/// same call sees a fresh, independent draw (which is what lets retries
/// mask transient faults deterministically).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "kg/endpoint.h"

namespace mesa {

/// Per-operation fault rates and injected latency. All rates in [0, 1].
struct FaultRates {
  // Transient classes — a later attempt may succeed.
  double timeout = 0.0;       ///< kDeadlineExceeded ("request timed out").
  double rate_limit = 0.0;    ///< kResourceExhausted ("rate limited").
  double unavailable = 0.0;   ///< kUnavailable ("service unavailable").
  double truncate = 0.0;      ///< kUnavailable ("truncated response").
  // Permanent classes — every attempt fails the same way.
  double malformed = 0.0;     ///< kInternal, per attempt ("malformed response").
  double fail_keys = 0.0;     ///< kInternal, per *argument*: this fraction of
                              ///< arguments is permanently broken.
  // Injected latency per attempt, drawn uniformly in [min, max] virtual ms.
  uint64_t latency_min_ms = 0;
  uint64_t latency_max_ms = 0;
};

/// A complete fault plan: default rates plus optional per-operation
/// overrides ("resolve", "properties").
struct FaultPlan {
  uint64_t seed = 1;
  FaultRates rates;
  std::map<std::string, FaultRates> per_op;

  /// True if any rate or latency is non-zero.
  bool has_faults() const;

  /// The rates in effect for `op` (override or default).
  const FaultRates& RatesFor(const std::string& op) const;

  /// Parses the plan grammar: `key=value` pairs separated by ';' or ',',
  /// whitespace ignored. Keys: seed, timeout, rate_limit, unavailable,
  /// truncate, malformed, fail_keys, latency (N or MIN:MAX, virtual ms) —
  /// each optionally prefixed "resolve." / "properties.".
  static Result<FaultPlan> Parse(const std::string& text);

  /// Parses MESA_FAULT_PLAN; an empty/unset variable yields a no-fault
  /// plan, a malformed one is an error (a silently ignored typo would
  /// fake reliability).
  static Result<FaultPlan> FromEnv();
};

/// Wraps any endpoint with a FaultPlan. Each operation first draws its
/// injected latency (advancing the bound VirtualClock), then each fault
/// class in a fixed order; surviving calls are forwarded to the inner
/// endpoint. Fault totals are exposed for tests and the chaos harness.
class FaultInjectingEndpoint : public KgEndpoint {
 public:
  FaultInjectingEndpoint(std::shared_ptr<KgEndpoint> inner, FaultPlan plan);

  Result<LinkResult> Resolve(const std::string& text,
                             const EntityLinkerOptions& options) override;
  Result<std::vector<KgProperty>> Properties(EntityId id) override;
  void BindClock(VirtualClock* clock) override;

  /// Clones inner endpoint + plan. Fault draws are pure functions of
  /// (plan seed, op, argument, per-argument attempt number), and the clone
  /// starts with fresh attempt counts — so a shard replaying a value's
  /// call sequence from attempt 0 sees exactly the draws the serial path
  /// would have produced for that value.
  std::shared_ptr<KgEndpoint> CloneForShard() const override;

  struct Counters {
    uint64_t calls = 0;
    uint64_t faults = 0;  ///< attempts answered with an injected fault.
  };
  Counters counters() const;

 private:
  /// Injects latency and possibly a fault for attempt `op(arg)`.
  /// OK = no fault injected, forward to the inner endpoint.
  Status MaybeFault(const char* op, uint64_t arg_hash);

  std::shared_ptr<KgEndpoint> inner_;
  FaultPlan plan_;
  VirtualClock* clock_ = nullptr;

  // Per-(op, argument) attempt numbers, so each retry draws fresh.
  std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> attempt_counts_;

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> faults_{0};
};

}  // namespace mesa

#endif  // MESA_KG_FAULT_INJECTION_H_
