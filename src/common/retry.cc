#include "common/retry.h"

#include "common/metrics.h"

namespace mesa {

bool IsRetryable(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

CircuitBreaker::CircuitBreaker(BreakerOptions options)
    : options_(std::move(options)) {}

void CircuitBreaker::TransitionLocked(State next) {
  if (state_ == next) return;
  state_ = next;
  if (options_.metric_prefix.empty()) return;
  if (metrics::Enabled()) {
    // kg.breaker.state records the state code at each transition
    // (0 closed, 1 open, 2 half-open); the per-state counters make the
    // transition totals greppable in the JSON snapshot.
    metrics::GetDistribution(options_.metric_prefix + ".state")
        .Record(static_cast<double>(static_cast<int>(next)));
    const char* suffix = next == State::kOpen
                             ? ".opened"
                             : next == State::kHalfOpen ? ".half_open"
                                                        : ".closed";
    metrics::GetCounter(options_.metric_prefix + suffix).Add(1);
  }
}

bool CircuitBreaker::Allow(uint64_t now_ms, uint64_t* retry_at_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_ms < open_until_ms_) {
        if (retry_at_ms != nullptr) *retry_at_ms = open_until_ms_;
        return false;
      }
      TransitionLocked(State::kHalfOpen);
      probe_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      // One probe at a time; concurrent callers wait a cooldown out.
      if (probe_in_flight_) {
        if (retry_at_ms != nullptr) {
          *retry_at_ms = now_ms + options_.cooldown_ms;
        }
        return false;
      }
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  TransitionLocked(State::kClosed);
}

void CircuitBreaker::RecordFailure(uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  probe_in_flight_ = false;
  if (state_ == State::kHalfOpen ||
      consecutive_failures_ >= options_.failure_threshold) {
    if (state_ != State::kOpen) ++times_opened_;
    TransitionLocked(State::kOpen);
    open_until_ms_ = now_ms + options_.cooldown_ms;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::times_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return times_opened_;
}

}  // namespace mesa
