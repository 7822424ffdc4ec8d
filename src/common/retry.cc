#include "common/retry.h"

#include <algorithm>
#include <cmath>

namespace kg {

double BackoffMs(const RetryPolicy& policy, size_t attempt, Rng& rng) {
  const double nominal =
      std::min(policy.max_backoff_ms,
               policy.initial_backoff_ms *
                   std::pow(policy.backoff_multiplier,
                            static_cast<double>(attempt)));
  const double j = std::clamp(policy.jitter_fraction, 0.0, 1.0);
  const double scale = j > 0.0 ? rng.UniformDouble(1.0 - j, 1.0 + j) : 1.0;
  return nominal * scale;
}

RetryOutcome RetryWithBackoff(
    const RetryPolicy& policy, Rng jitter_rng, CircuitBreaker* breaker,
    const std::function<AttemptResult(size_t attempt)>& attempt_fn) {
  RetryOutcome out;
  if (breaker != nullptr && !breaker->Allow()) {
    out.status = Status::Unavailable("circuit breaker open");
    return out;
  }
  const size_t max_attempts = std::max<size_t>(1, policy.max_attempts);
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const AttemptResult result = attempt_fn(attempt);
    ++out.attempts;
    out.retries = out.attempts - 1;
    out.virtual_ms += result.latency_ms;
    if (result.status.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
      out.status = Status::OK();
      return out;
    }
    if (breaker != nullptr) breaker->RecordFailure();
    if (!IsRetriable(result.status.code())) {
      out.status = result.status;
      return out;
    }
    if (breaker != nullptr && !breaker->Allow()) {
      out.status = Status::Unavailable(
          "circuit breaker opened: " + result.status.ToString());
      return out;
    }
    if (attempt + 1 == max_attempts) {
      out.status = result.status;
      return out;
    }
    const double backoff = BackoffMs(policy, attempt, jitter_rng);
    if (policy.deadline_budget_ms > 0.0 &&
        out.virtual_ms + backoff > policy.deadline_budget_ms) {
      out.status = Status::DeadlineExceeded(
          "retry budget exhausted after " +
          std::to_string(out.attempts) +
          " attempts: " + result.status.ToString());
      return out;
    }
    out.virtual_ms += backoff;
  }
  return out;  // Unreachable: the loop always returns.
}

}  // namespace kg
