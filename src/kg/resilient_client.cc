#include "kg/resilient_client.h"

#include "common/metrics.h"
#include "common/rng.h"

namespace mesa {

ResilientKgClient::ResilientKgClient(std::shared_ptr<KgEndpoint> endpoint,
                                     KgClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(std::move(options)),
      breaker_(options_.breaker) {
  endpoint_->BindClock(&clock_);
}

template <typename T, bool kCachePayload, typename Attempt>
Result<T> ResilientKgClient::Call(uint64_t call_key, const Attempt& attempt) {
  MESA_SPAN("kg_lookup");
  MESA_COUNT("kg.lookups");
  calls_.fetch_add(1, std::memory_order_relaxed);

  if (options_.enable_cache) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(call_key);
    if (it != cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      MESA_COUNT("kg.cache.hits");
      if (std::holds_alternative<Status>(it->second)) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        return std::get<Status>(it->second);
      }
      return std::get<T>(it->second);
    }
    MESA_COUNT("kg.cache.misses");
  }

  // The payload of the last successful attempt; RetryCall only sees the
  // Status so the loop stays type-agnostic.
  T payload{};
  auto one_attempt = [&]() -> Status {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    Result<T> r = attempt();
    if (!r.ok()) return r.status();
    payload = std::move(r).value();
    return Status::OK();
  };
  RetryResult rr =
      RetryCall(options_.retry, &clock_, &breaker_, call_key, one_attempt);
  if (rr.retried) {
    calls_retried_.fetch_add(1, std::memory_order_relaxed);
    MESA_COUNT_N("kg.lookup.retries", rr.attempts - 1);
    MESA_COUNT("kg.lookup.calls_retried");
  }

  if (!rr.status.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    MESA_COUNT("kg.lookup.failures");
    // Negative cache: only failures that cannot heal (a retryable code
    // here means the budget ran out — the service may still recover).
    if (options_.enable_cache && !IsRetryable(rr.status.code())) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      cache_.emplace(call_key, rr.status);
    }
    return rr.status;
  }
  if (kCachePayload && options_.enable_cache) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_.emplace(call_key, payload);  // copy: the original is returned
  }
  return std::move(payload);
}

namespace {
// Per-operation key tags, folded at compile time.
constexpr uint64_t kResolveTag = StableHash64("resolve");
constexpr uint64_t kPropertiesTag = StableHash64("properties");
}  // namespace

Result<LinkResult> ResilientKgClient::Resolve(
    const std::string& text, const EntityLinkerOptions& options) {
  // The linker configuration is part of the response identity.
  uint64_t key = MixSeed(kResolveTag, StableHash64(text));
  key = MixSeed(key, StableHash64(options.type_filter));
  key = MixSeed(key, static_cast<uint64_t>(options.max_edit_distance) * 2 +
                         (options.enable_fuzzy ? 1 : 0));
  return Call<LinkResult, /*kCachePayload=*/true>(
      key, [&] { return endpoint_->Resolve(text, options); });
}

Result<std::vector<KgProperty>> ResilientKgClient::Properties(EntityId id) {
  return Call<std::vector<KgProperty>, /*kCachePayload=*/false>(
      MixSeed(kPropertiesTag, id), [&] { return endpoint_->Properties(id); });
}

std::unique_ptr<ResilientKgClient> ResilientKgClient::CloneForShard() const {
  return std::make_unique<ResilientKgClient>(endpoint_->CloneForShard(),
                                             options_);
}

void ResilientKgClient::AbsorbCounters(const Counters& c) {
  calls_.fetch_add(c.calls, std::memory_order_relaxed);
  attempts_.fetch_add(c.attempts, std::memory_order_relaxed);
  calls_retried_.fetch_add(c.calls_retried, std::memory_order_relaxed);
  failures_.fetch_add(c.failures, std::memory_order_relaxed);
  cache_hits_.fetch_add(c.cache_hits, std::memory_order_relaxed);
}

ResilientKgClient::Counters ResilientKgClient::counters() const {
  Counters c;
  c.calls = calls_.load(std::memory_order_relaxed);
  c.attempts = attempts_.load(std::memory_order_relaxed);
  c.calls_retried = calls_retried_.load(std::memory_order_relaxed);
  c.failures = failures_.load(std::memory_order_relaxed);
  c.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace mesa
