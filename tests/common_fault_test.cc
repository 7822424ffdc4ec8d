#include "common/fault.h"

#include <gtest/gtest.h>

#include <string>

namespace kg {
namespace {

TEST(FaultPlanTest, DefaultPlanIsInactive) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  FaultInjector injector(plan);
  for (size_t attempt = 0; attempt < 5; ++attempt) {
    const auto probe = injector.Probe("src", attempt);
    EXPECT_TRUE(probe.status.ok());
    EXPECT_EQ(probe.kind, FaultKind::kNone);
  }
  EXPECT_FALSE(injector.IsTerminal("src"));
  EXPECT_DOUBLE_EQ(injector.KeepFraction("src"), 1.0);
  EXPECT_EQ(injector.MaybeCorrupt("src", "claim", "v"), "v");
}

TEST(FaultPlanTest, UniformPlanDrivesEveryChannel) {
  const FaultPlan plan = FaultPlan::Uniform(1, 0.5);
  EXPECT_TRUE(plan.active());
  EXPECT_DOUBLE_EQ(plan.transient_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan.slow_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.truncate_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.terminal_rate, 0.125);
  EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.1);
}

TEST(FaultInjectorTest, DecisionsArePureFunctionsOfSeedSourceAttempt) {
  FaultPlan plan;
  plan.seed = 99;
  plan.transient_rate = 0.3;
  plan.slow_rate = 0.2;
  plan.terminal_rate = 0.1;
  plan.truncate_rate = 0.4;
  plan.corrupt_rate = 0.3;
  const FaultInjector a(plan);
  const FaultInjector b(plan);  // Fresh instance: no hidden state.
  for (int s = 0; s < 50; ++s) {
    const std::string source = "source" + std::to_string(s);
    EXPECT_EQ(a.IsTerminal(source), b.IsTerminal(source));
    EXPECT_DOUBLE_EQ(a.KeepFraction(source), b.KeepFraction(source));
    for (size_t attempt = 0; attempt < 4; ++attempt) {
      const auto pa = a.Probe(source, attempt);
      // Re-probing (any order, any count) replays the same outcome.
      const auto pb = b.Probe(source, attempt);
      EXPECT_EQ(pa.kind, pb.kind);
      EXPECT_EQ(pa.status.code(), pb.status.code());
      EXPECT_DOUBLE_EQ(pa.latency_ms, pb.latency_ms);
    }
    EXPECT_EQ(a.MaybeCorrupt(source, "k", "value"),
              b.MaybeCorrupt(source, "k", "value"));
  }
}

TEST(FaultInjectorTest, SeedChangesDecisions) {
  FaultPlan p1, p2;
  p1.seed = 1;
  p2.seed = 2;
  p1.transient_rate = p2.transient_rate = 0.5;
  const FaultInjector a(p1), b(p2);
  int diffs = 0;
  for (int s = 0; s < 200; ++s) {
    const std::string source = "s" + std::to_string(s);
    if (a.Probe(source, 0).kind != b.Probe(source, 0).kind) ++diffs;
  }
  EXPECT_GT(diffs, 20);
}

TEST(FaultInjectorTest, TransientRateRoughlyHonored) {
  FaultPlan plan;
  plan.seed = 7;
  plan.transient_rate = 0.2;
  const FaultInjector injector(plan);
  int failures = 0;
  const int kTrials = 2000;
  for (int s = 0; s < kTrials; ++s) {
    const auto probe =
        injector.Probe("src" + std::to_string(s), /*attempt=*/0);
    if (!probe.status.ok()) {
      ++failures;
      EXPECT_EQ(probe.status.code(), StatusCode::kUnavailable);
      EXPECT_EQ(probe.kind, FaultKind::kTransient);
    }
  }
  const double rate = static_cast<double>(failures) / kTrials;
  EXPECT_NEAR(rate, 0.2, 0.04);
}

TEST(FaultInjectorTest, TerminalSourcesFailEveryAttempt) {
  FaultPlan plan;
  plan.seed = 11;
  plan.terminal_rate = 0.3;
  const FaultInjector injector(plan);
  int terminal = 0;
  for (int s = 0; s < 300; ++s) {
    const std::string source = "t" + std::to_string(s);
    if (!injector.IsTerminal(source)) continue;
    ++terminal;
    for (size_t attempt = 0; attempt < 6; ++attempt) {
      const auto probe = injector.Probe(source, attempt);
      EXPECT_EQ(probe.kind, FaultKind::kTerminal);
      EXPECT_EQ(probe.status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_NEAR(terminal / 300.0, 0.3, 0.08);
}

TEST(FaultInjectorTest, KeepFractionBounded) {
  FaultPlan plan;
  plan.seed = 13;
  plan.truncate_rate = 1.0;  // Every source truncated.
  plan.min_truncate_keep = 0.4;
  const FaultInjector injector(plan);
  for (int s = 0; s < 100; ++s) {
    const double keep = injector.KeepFraction("k" + std::to_string(s));
    EXPECT_GE(keep, 0.4);
    EXPECT_LT(keep, 1.0);
  }
}

TEST(FaultInjectorTest, CorruptionMarksValueAndNeverCollides) {
  FaultPlan plan;
  plan.seed = 17;
  plan.corrupt_rate = 1.0;
  const FaultInjector injector(plan);
  const std::string corrupted =
      injector.MaybeCorrupt("src", "claim", "1999");
  EXPECT_NE(corrupted, "1999");
  // Corrupted values are marked with a byte clean values never contain.
  EXPECT_NE(corrupted.find('\x7f'), std::string::npos);
  // Same claim corrupts identically; different claims may differ.
  EXPECT_EQ(injector.MaybeCorrupt("src", "claim", "1999"), corrupted);
}

TEST(DegradationReportTest, AggregatesRows) {
  DegradationReport report;
  SourceDegradation healthy;
  healthy.source = "a";
  healthy.attempts = 1;
  SourceDegradation retried;
  retried.source = "b";
  retried.attempts = 3;
  retried.retries = 2;
  retried.claims_corrupted = 4;
  SourceDegradation dead;
  dead.source = "c";
  dead.attempts = 4;
  dead.retries = 3;
  dead.quarantined = true;
  dead.final_status = Status::Unavailable("down");
  dead.claims_dropped = 17;
  report.sources = {healthy, retried, dead};
  EXPECT_EQ(report.attempted(), 3u);
  EXPECT_EQ(report.quarantined(), 1u);
  EXPECT_EQ(report.total_retries(), 5u);
  EXPECT_EQ(report.claims_dropped(), 17u);
  EXPECT_EQ(report.claims_corrupted(), 4u);
}

}  // namespace
}  // namespace kg
