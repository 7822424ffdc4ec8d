#ifndef KGRAPH_COMMON_RETRY_H_
#define KGRAPH_COMMON_RETRY_H_

#include <cstddef>
#include <functional>

#include "common/rng.h"
#include "common/status.h"

namespace kg {

/// Retry/backoff policy for flaky sources. All timing is *virtual*
/// milliseconds — simulated latency plus computed backoff — never wall
/// clock, so a retried run is exactly reproducible. Jitter comes from an
/// `Rng` the caller derives with `Rng::Split`, keeping backoff schedules
/// independent of thread count and of every other random stream.
struct RetryPolicy {
  /// Total attempts including the first (>= 1).
  size_t max_attempts = 4;
  double initial_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1000.0;
  /// Backoff is scaled by a factor uniform in [1 - j, 1 + j).
  double jitter_fraction = 0.2;
  /// Virtual-time budget per fetch (latency + backoff). Exceeding it
  /// fails the fetch with kDeadlineExceeded. <= 0 disables the budget.
  double deadline_budget_ms = 10000.0;
  /// Consecutive failures that open a source's circuit breaker. Set
  /// above `max_attempts` (the default) to let retries run their course;
  /// lower it to cut off sources that fail fast and often.
  size_t breaker_failure_threshold = 6;
};

/// Nominal capped exponential backoff before retry `attempt` (0-based
/// retry index), scaled by deterministic jitter drawn from `rng`.
double BackoffMs(const RetryPolicy& policy, size_t attempt, Rng& rng);

/// Per-source circuit breaker: opens after N *consecutive* failures and
/// stays open (no half-open probes — sources here don't heal mid-run;
/// a success before the threshold resets the streak).
class CircuitBreaker {
 public:
  explicit CircuitBreaker(size_t failure_threshold)
      : threshold_(failure_threshold) {}

  /// False once the breaker has opened.
  bool Allow() const { return !open_; }
  bool open() const { return open_; }
  size_t consecutive_failures() const { return consecutive_failures_; }

  void RecordSuccess() { consecutive_failures_ = 0; }
  void RecordFailure() {
    if (++consecutive_failures_ >= threshold_) open_ = true;
  }

 private:
  size_t threshold_;
  size_t consecutive_failures_ = 0;
  bool open_ = false;
};

/// One attempt's result as seen by `RetryWithBackoff`.
struct AttemptResult {
  Status status;
  double latency_ms = 0.0;  ///< Virtual time the attempt consumed.
};

/// Final outcome of a retried fetch.
struct RetryOutcome {
  Status status;        ///< OK, or the terminal failure.
  size_t attempts = 0;  ///< Attempts actually made.
  size_t retries = 0;   ///< attempts - 1 (0 when none were made).
  double virtual_ms = 0.0;  ///< Latency + backoff consumed (virtual).
};

/// Runs `attempt_fn(attempt)` until it succeeds, returns a non-retriable
/// status (see `IsRetriable`), exhausts `policy.max_attempts`, trips
/// `breaker` (optional, may be null), or would blow the virtual deadline
/// budget (then kDeadlineExceeded). `jitter_rng` is consumed by value so
/// the caller's stream is never perturbed — pass `rng.Split(...)`.
RetryOutcome RetryWithBackoff(
    const RetryPolicy& policy, Rng jitter_rng, CircuitBreaker* breaker,
    const std::function<AttemptResult(size_t attempt)>& attempt_fn);

}  // namespace kg

#endif  // KGRAPH_COMMON_RETRY_H_
