#include "kg/fault_injection.h"

#include <cstdlib>

#include "common/rng.h"
#include "common/string_util.h"

namespace mesa {

namespace {

// Splits "a;b,c" on both separators, trimming whitespace, dropping empties.
std::vector<std::string> SplitPairs(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == ';' || c == ',') {
      std::string_view trimmed = StripWhitespace(cur);
      if (!trimmed.empty()) out.emplace_back(trimmed);
      cur.clear();
    } else {
      cur += c;
    }
  }
  std::string_view trimmed = StripWhitespace(cur);
  if (!trimmed.empty()) out.emplace_back(trimmed);
  return out;
}

Status SetRate(FaultRates* rates, const std::string& key,
               const std::string& value) {
  if (key == "latency") {
    // N or MIN:MAX (virtual milliseconds).
    size_t colon = value.find(':');
    int64_t lo = 0, hi = 0;
    if (colon == std::string::npos) {
      if (!ParseInt64(value, &lo) || lo < 0) {
        return Status::InvalidArgument("bad latency value: " + value);
      }
      hi = lo;
    } else {
      if (!ParseInt64(value.substr(0, colon), &lo) ||
          !ParseInt64(value.substr(colon + 1), &hi) || lo < 0 || hi < lo) {
        return Status::InvalidArgument("bad latency range: " + value);
      }
    }
    rates->latency_min_ms = static_cast<uint64_t>(lo);
    rates->latency_max_ms = static_cast<uint64_t>(hi);
    return Status::OK();
  }
  double rate = 0.0;
  if (!ParseDouble(value, &rate) || rate < 0.0 || rate > 1.0) {
    return Status::InvalidArgument("fault rate for '" + key +
                                   "' must be in [0,1], got: " + value);
  }
  if (key == "timeout") {
    rates->timeout = rate;
  } else if (key == "rate_limit") {
    rates->rate_limit = rate;
  } else if (key == "unavailable") {
    rates->unavailable = rate;
  } else if (key == "truncate") {
    rates->truncate = rate;
  } else if (key == "malformed") {
    rates->malformed = rate;
  } else if (key == "fail_keys") {
    rates->fail_keys = rate;
  } else {
    return Status::InvalidArgument("unknown fault-plan key: " + key);
  }
  return Status::OK();
}

bool RatesHaveFaults(const FaultRates& r) {
  return r.timeout > 0 || r.rate_limit > 0 || r.unavailable > 0 ||
         r.truncate > 0 || r.malformed > 0 || r.fail_keys > 0 ||
         r.latency_max_ms > 0;
}

}  // namespace

bool FaultPlan::has_faults() const {
  if (RatesHaveFaults(rates)) return true;
  for (const auto& [op, r] : per_op) {
    (void)op;
    if (RatesHaveFaults(r)) return true;
  }
  return false;
}

const FaultRates& FaultPlan::RatesFor(const std::string& op) const {
  auto it = per_op.find(op);
  return it == per_op.end() ? rates : it->second;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  for (const std::string& pair : SplitPairs(text)) {
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault-plan entry is not key=value: " +
                                     pair);
    }
    std::string key(StripWhitespace(pair.substr(0, eq)));
    std::string value(StripWhitespace(pair.substr(eq + 1)));
    if (key == "seed") {
      int64_t seed = 0;
      if (!ParseInt64(value, &seed) || seed < 0) {
        return Status::InvalidArgument("bad fault-plan seed: " + value);
      }
      plan.seed = static_cast<uint64_t>(seed);
      continue;
    }
    size_t dot = key.find('.');
    if (dot == std::string::npos) {
      MESA_RETURN_IF_ERROR(SetRate(&plan.rates, key, value));
    } else {
      std::string op = key.substr(0, dot);
      if (op != "resolve" && op != "properties") {
        return Status::InvalidArgument("unknown fault-plan operation: " + op);
      }
      // An op override starts from the defaults parsed so far.
      auto [it, inserted] = plan.per_op.emplace(op, plan.rates);
      (void)inserted;
      MESA_RETURN_IF_ERROR(SetRate(&it->second, key.substr(dot + 1), value));
    }
  }
  return plan;
}

Result<FaultPlan> FaultPlan::FromEnv() {
  const char* env = std::getenv("MESA_FAULT_PLAN");
  if (env == nullptr || *env == '\0') return FaultPlan{};
  auto plan = Parse(env);
  if (!plan.ok()) {
    return Status::InvalidArgument("MESA_FAULT_PLAN: " +
                                   plan.status().message());
  }
  return plan;
}

FaultInjectingEndpoint::FaultInjectingEndpoint(
    std::shared_ptr<KgEndpoint> inner, FaultPlan plan)
    : inner_(std::move(inner)), plan_(std::move(plan)) {}

void FaultInjectingEndpoint::BindClock(VirtualClock* clock) {
  clock_ = clock;
  inner_->BindClock(clock);
}

std::shared_ptr<KgEndpoint> FaultInjectingEndpoint::CloneForShard() const {
  return std::make_shared<FaultInjectingEndpoint>(inner_->CloneForShard(),
                                                  plan_);
}

Status FaultInjectingEndpoint::MaybeFault(const char* op, uint64_t arg_hash) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  const FaultRates& rates = plan_.RatesFor(op);
  const uint64_t op_key = MixSeed(StableHash64(op), arg_hash);

  uint64_t attempt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt = attempt_counts_[op_key]++;
  }
  // One independent deterministic stream per (op, argument, attempt).
  Rng rng(MixSeed(MixSeed(plan_.seed, op_key), attempt));

  if (clock_ != nullptr && rates.latency_max_ms > 0) {
    clock_->AdvanceMs(rates.latency_min_ms +
                      rng.NextBelow(rates.latency_max_ms -
                                    rates.latency_min_ms + 1));
  }

  Status fault = Status::OK();
  // Permanently broken arguments: the draw ignores the attempt number,
  // so every retry of the same argument fails identically.
  if (rates.fail_keys > 0.0 &&
      Rng(MixSeed(plan_.seed, MixSeed(op_key, 0x9E37ULL))).NextBernoulli(
          rates.fail_keys)) {
    fault = Status::Internal(std::string(op) + ": permanently failing key");
  } else if (rng.NextBernoulli(rates.timeout)) {
    fault = Status::DeadlineExceeded(std::string(op) + ": request timed out");
  } else if (rng.NextBernoulli(rates.rate_limit)) {
    fault = Status::ResourceExhausted(std::string(op) + ": rate limited");
  } else if (rng.NextBernoulli(rates.unavailable)) {
    fault = Status::Unavailable(std::string(op) + ": service unavailable");
  } else if (rng.NextBernoulli(rates.truncate)) {
    fault = Status::Unavailable(std::string(op) + ": truncated response");
  } else if (rng.NextBernoulli(rates.malformed)) {
    fault = Status::Internal(std::string(op) + ": malformed response");
  }
  if (!fault.ok()) faults_.fetch_add(1, std::memory_order_relaxed);
  return fault;
}

Result<LinkResult> FaultInjectingEndpoint::Resolve(
    const std::string& text, const EntityLinkerOptions& options) {
  MESA_RETURN_IF_ERROR(MaybeFault("resolve", StableHash64(text)));
  return inner_->Resolve(text, options);
}

Result<std::vector<KgProperty>> FaultInjectingEndpoint::Properties(
    EntityId id) {
  MESA_RETURN_IF_ERROR(MaybeFault("properties", id));
  return inner_->Properties(id);
}

FaultInjectingEndpoint::Counters FaultInjectingEndpoint::counters() const {
  Counters c;
  c.calls = calls_.load(std::memory_order_relaxed);
  c.faults = faults_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace mesa
