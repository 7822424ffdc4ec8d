#include "common/retry.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/fault.h"
#include "common/hash.h"

namespace kg {
namespace {

RetryPolicy NoJitterPolicy() {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 50.0;
  policy.jitter_fraction = 0.0;
  return policy;
}

TEST(BackoffTest, CappedExponentialWithoutJitter) {
  const RetryPolicy policy = NoJitterPolicy();
  Rng rng(1);
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 0, rng), 10.0);
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 1, rng), 20.0);
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 2, rng), 40.0);
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 3, rng), 50.0);  // Capped.
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 9, rng), 50.0);
}

TEST(BackoffTest, JitterBoundedAndDeterministicPerStream) {
  RetryPolicy policy = NoJitterPolicy();
  policy.jitter_fraction = 0.25;
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    Rng rng = Rng(42).Split(7);  // Same stream both runs.
    for (size_t attempt = 0; attempt < 6; ++attempt) {
      const double ms = BackoffMs(policy, attempt, rng);
      const double nominal = std::min(50.0, 10.0 * std::pow(2.0, attempt));
      EXPECT_GE(ms, nominal * 0.75);
      EXPECT_LT(ms, nominal * 1.25);
      if (run == 0) {
        first.push_back(ms);
      } else {
        EXPECT_DOUBLE_EQ(ms, first[attempt]);
      }
    }
  }
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresOnly) {
  CircuitBreaker breaker(3);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // Resets the streak.
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.open());
  breaker.RecordSuccess();  // No half-open healing.
  EXPECT_FALSE(breaker.Allow());
}

TEST(RetryTest, SucceedsFirstTry) {
  const RetryOutcome out = RetryWithBackoff(
      NoJitterPolicy(), Rng(1), nullptr,
      [](size_t) { return AttemptResult{Status::OK(), 2.0}; });
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_DOUBLE_EQ(out.virtual_ms, 2.0);
}

TEST(RetryTest, RetriesTransientsThenSucceeds) {
  size_t calls = 0;
  const RetryOutcome out = RetryWithBackoff(
      NoJitterPolicy(), Rng(1), nullptr, [&calls](size_t attempt) {
        EXPECT_EQ(attempt, calls);
        ++calls;
        if (attempt < 2) {
          return AttemptResult{Status::Unavailable("flaky"), 5.0};
        }
        return AttemptResult{Status::OK(), 1.0};
      });
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_EQ(out.retries, 2u);
  // 5 + backoff(10) + 5 + backoff(20) + 1.
  EXPECT_DOUBLE_EQ(out.virtual_ms, 41.0);
}

TEST(RetryTest, TerminalStatusNotRetried) {
  size_t calls = 0;
  const RetryOutcome out = RetryWithBackoff(
      NoJitterPolicy(), Rng(1), nullptr, [&calls](size_t) {
        ++calls;
        return AttemptResult{Status::Internal("broken"), 1.0};
      });
  EXPECT_EQ(out.status.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(out.attempts, 1u);
}

TEST(RetryTest, AttemptsExhaustedReturnsLastTransient) {
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 3;
  const RetryOutcome out = RetryWithBackoff(
      policy, Rng(1), nullptr, [](size_t attempt) {
        return AttemptResult{
            Status::Unavailable("attempt " + std::to_string(attempt)),
            1.0};
      });
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(out.status.message(), "attempt 2");
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_EQ(out.retries, 2u);
}

TEST(RetryTest, DeadlineBudgetStopsBeforeBackoff) {
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 10;
  policy.deadline_budget_ms = 30.0;
  const RetryOutcome out = RetryWithBackoff(
      policy, Rng(1), nullptr, [](size_t) {
        return AttemptResult{Status::Unavailable("flaky"), 9.0};
      });
  // 9 + 10 + 9 = 28; next backoff (20ms) would blow the 30ms budget.
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_DOUBLE_EQ(out.virtual_ms, 28.0);
}

TEST(RetryTest, BreakerCutsRetriesShortAndStaysOpen) {
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 10;
  CircuitBreaker breaker(2);
  size_t calls = 0;
  const RetryOutcome out = RetryWithBackoff(
      policy, Rng(1), &breaker, [&calls](size_t) {
        ++calls;
        return AttemptResult{Status::Unavailable("flaky"), 1.0};
      });
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 2u);  // Threshold 2 < max_attempts 10.
  EXPECT_TRUE(breaker.open());
  // An open breaker short-circuits the next fetch: zero attempts.
  const RetryOutcome blocked = RetryWithBackoff(
      policy, Rng(1), &breaker,
      [](size_t) { return AttemptResult{Status::OK(), 1.0}; });
  EXPECT_EQ(blocked.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(blocked.attempts, 0u);
}

TEST(RetryTest, DrivenByFaultInjectorIsDeterministic) {
  FaultPlan plan;
  plan.seed = 3;
  plan.transient_rate = 0.4;
  const FaultInjector injector(plan);
  RetryPolicy policy = NoJitterPolicy();
  policy.jitter_fraction = 0.2;
  auto run = [&](const std::string& source) {
    return RetryWithBackoff(
        policy, Rng(42).Split(Fnv1a64(source)), nullptr,
        [&](size_t attempt) {
          const FaultInjector::Attempt probe =
              injector.Probe(source, attempt);
          return AttemptResult{probe.status, probe.latency_ms};
        });
  };
  for (int s = 0; s < 30; ++s) {
    const std::string source = "src" + std::to_string(s);
    const RetryOutcome a = run(source);
    const RetryOutcome b = run(source);
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_DOUBLE_EQ(a.virtual_ms, b.virtual_ms);
  }
}

// Each scenario's outcome records exactly the decisions it made: the
// attempts, the backoff time added to virtual_ms (attempts cost 1 ms
// each here, and NoJitterPolicy backs off 10, 20, 40, 50 ms), and
// whether the fetch succeeded or gave up.
TEST(RetryEventsTest, TransientsThenSuccessCountsExactly) {
  const RetryOutcome out =
      RetryWithBackoff(NoJitterPolicy(), Rng(1), nullptr, [](size_t attempt) {
        if (attempt < 2) {
          return AttemptResult{Status::Unavailable("flaky"), 1.0};
        }
        return AttemptResult{Status::OK(), 1.0};
      });
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_EQ(out.retries, 2u);
  EXPECT_DOUBLE_EQ(out.virtual_ms, 3 * 1.0 + 10.0 + 20.0);  // two backoffs
  EXPECT_TRUE(out.status.ok());
}

TEST(RetryEventsTest, ExhaustionIsExactlyOneGiveup) {
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 3;
  const RetryOutcome out =
      RetryWithBackoff(policy, Rng(1), nullptr, [](size_t) {
        return AttemptResult{Status::Unavailable("flaky"), 1.0};
      });
  EXPECT_EQ(out.attempts, 3u);
  // The last attempt returns without a backoff draw.
  EXPECT_DOUBLE_EQ(out.virtual_ms, 3 * 1.0 + 10.0 + 20.0);
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
}

TEST(RetryEventsTest, NonRetriableGivesUpWithoutBackoff) {
  const RetryOutcome out =
      RetryWithBackoff(NoJitterPolicy(), Rng(1), nullptr, [](size_t) {
        return AttemptResult{Status::Internal("broken"), 1.0};
      });
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_DOUBLE_EQ(out.virtual_ms, 1.0);
  EXPECT_EQ(out.status.code(), StatusCode::kInternal);
}

TEST(RetryEventsTest, BreakerTripAndRejectionCountExactly) {
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 10;
  CircuitBreaker breaker(2);
  // Two failures: the second trips the breaker and the loop gives up.
  RetryOutcome out = RetryWithBackoff(policy, Rng(1), &breaker, [](size_t) {
    return AttemptResult{Status::Unavailable("flaky"), 1.0};
  });
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_DOUBLE_EQ(out.virtual_ms, 2 * 1.0 + 10.0);  // one backoff
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  // An open breaker rejects the next fetch outright: no attempt, and the
  // fetch fails.
  out = RetryWithBackoff(policy, Rng(1), &breaker, [](size_t) {
    return AttemptResult{Status::OK(), 1.0};
  });
  EXPECT_EQ(out.attempts, 0u);
  EXPECT_DOUBLE_EQ(out.virtual_ms, 0.0);
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(breaker.open());
}

}  // namespace
}  // namespace kg
