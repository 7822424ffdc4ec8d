#ifndef KGRAPH_COMMON_FAULT_H_
#define KGRAPH_COMMON_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace kg {

/// What the injector does to one (source, attempt) interaction.
enum class FaultKind {
  kNone = 0,   ///< Attempt succeeds, payload untouched.
  kTransient,  ///< Attempt fails with kUnavailable; a retry may succeed.
  kSlow,       ///< Attempt succeeds but burns extra virtual latency.
  kTerminal,   ///< Source is down on every attempt (dead upstream).
};

/// Declarative chaos profile for a pipeline run. All rates are
/// probabilities in [0, 1]; a default-constructed plan injects nothing.
/// The plan is part of the experiment seed: the same `(seed, rates)`
/// reproduces the exact same faults on every run, thread count, and
/// machine, because `FaultInjector` derives every decision purely from
/// `(seed, source_id, attempt)`.
struct FaultPlan {
  uint64_t seed = 0;

  /// P(an individual attempt fails transiently), per (source, attempt).
  double transient_rate = 0.0;
  /// P(an individual attempt responds slowly), per (source, attempt).
  double slow_rate = 0.0;
  /// P(a source is terminally down: every attempt fails), per source.
  double terminal_rate = 0.0;
  /// P(a delivered payload arrives truncated), per source.
  double truncate_rate = 0.0;
  /// P(a delivered claim value is corrupted), per claim.
  double corrupt_rate = 0.0;

  /// Truncated payloads keep at least this fraction of their records.
  double min_truncate_keep = 0.3;
  /// Virtual latency of a healthy attempt (counts against deadlines).
  double base_latency_ms = 1.0;
  /// Virtual latency of a slow or failing attempt.
  double slow_latency_ms = 25.0;

  /// True when any fault channel can fire.
  bool active() const {
    return transient_rate > 0.0 || slow_rate > 0.0 || terminal_rate > 0.0 ||
           truncate_rate > 0.0 || corrupt_rate > 0.0;
  }

  /// The profile used by chaos sweeps: one knob `rate` drives every
  /// channel (transient = rate, slow = rate/2, truncate = rate/2,
  /// terminal = rate/4, corrupt = rate/5).
  static FaultPlan Uniform(uint64_t seed, double rate);
};

/// Pure-function fault oracle. Every decision is a deterministic hash of
/// `(plan.seed, source_id, attempt, channel)` — never of wall clock,
/// thread schedule, or query order — so a chaos run replays bit-for-bit
/// at any parallelism, and probing a source twice gives the same answer.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Outcome of one simulated interaction with a source.
  struct Attempt {
    Status status;  ///< OK, or kUnavailable for transient/terminal.
    FaultKind kind = FaultKind::kNone;
    double latency_ms = 0.0;  ///< Virtual time the attempt consumed.
  };

  /// Simulates the `attempt`-th fetch of `source_id` (0-based).
  Attempt Probe(std::string_view source_id, size_t attempt) const;

  /// True when `source_id` fails on every attempt.
  bool IsTerminal(std::string_view source_id) const;

  /// Fraction of `source_id`'s payload records delivered (1.0 when the
  /// truncation channel does not fire).
  double KeepFraction(std::string_view source_id) const;

  /// Returns `value` corrupted (deterministically, and distinguishably
  /// from any clean value) when the corruption channel fires for
  /// `(source_id, claim_id)`, else `value` unchanged.
  std::string MaybeCorrupt(std::string_view source_id,
                           std::string_view claim_id,
                           std::string value) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  /// Uniform draw in [0, 1) for a (channel, source, attempt) triple.
  double UnitDraw(uint64_t channel, std::string_view source_id,
                  uint64_t attempt) const;

  FaultPlan plan_;
};

/// Per-source row of a `DegradationReport`.
struct SourceDegradation {
  std::string source;
  size_t attempts = 0;  ///< Fetch attempts made (>= 1 once probed).
  size_t retries = 0;   ///< attempts - 1 when any were needed.
  bool quarantined = false;
  Status final_status;         ///< Why quarantined (OK when healthy).
  size_t records_dropped = 0;  ///< Records lost to truncation.
  size_t claims_dropped = 0;   ///< Claims lost to truncation/quarantine.
  size_t claims_corrupted = 0;
  double virtual_ms = 0.0;  ///< Latency + backoff consumed (virtual).
};

/// Degradation summary a pipeline returns alongside its KG: which
/// sources survived, which were quarantined and why, and what the faults
/// cost in claims. Rows are appended in ingest order, so the report is
/// as deterministic as the KG itself.
struct DegradationReport {
  std::vector<SourceDegradation> sources;

  size_t attempted() const { return sources.size(); }
  size_t quarantined() const;
  size_t total_retries() const;
  size_t claims_dropped() const;
  size_t claims_corrupted() const;
};

}  // namespace kg

#endif  // KGRAPH_COMMON_FAULT_H_
