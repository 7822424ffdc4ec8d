#include "common/fault.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace kg {
namespace {

// Decision channels: each fault dimension draws from its own hash stream
// so e.g. raising the slow rate never re-rolls which sources are
// terminal.
constexpr uint64_t kChannelTransient = 1;
constexpr uint64_t kChannelSlow = 2;
constexpr uint64_t kChannelTerminal = 3;
constexpr uint64_t kChannelTruncate = 4;
constexpr uint64_t kChannelTruncateKeep = 5;
constexpr uint64_t kChannelCorrupt = 6;

// SplitMix64 finalizer (same mix as Rng::Split uses for shard seeds).
constexpr uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultPlan FaultPlan::Uniform(uint64_t seed, double rate) {
  FaultPlan plan;
  plan.seed = seed;
  plan.transient_rate = rate;
  plan.slow_rate = rate / 2.0;
  plan.truncate_rate = rate / 2.0;
  plan.terminal_rate = rate / 4.0;
  plan.corrupt_rate = rate / 5.0;
  return plan;
}

double FaultInjector::UnitDraw(uint64_t channel, std::string_view source_id,
                               uint64_t attempt) const {
  uint64_t h = Mix64(plan_.seed ^ Mix64(channel));
  h = Mix64(h ^ Fnv1a64(source_id));
  h = Mix64(h ^ attempt);
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::IsTerminal(std::string_view source_id) const {
  return UnitDraw(kChannelTerminal, source_id, 0) < plan_.terminal_rate;
}

double FaultInjector::KeepFraction(std::string_view source_id) const {
  if (UnitDraw(kChannelTruncate, source_id, 0) >= plan_.truncate_rate) {
    return 1.0;
  }
  const double span = 1.0 - plan_.min_truncate_keep;
  return plan_.min_truncate_keep +
         span * UnitDraw(kChannelTruncateKeep, source_id, 0);
}

FaultInjector::Attempt FaultInjector::Probe(std::string_view source_id,
                                            size_t attempt) const {
  Attempt result;
  if (IsTerminal(source_id)) {
    result.kind = FaultKind::kTerminal;
    result.latency_ms = plan_.slow_latency_ms;
    result.status = Status::Unavailable(std::string(source_id) +
                                        ": terminally unavailable");
    return result;
  }
  if (UnitDraw(kChannelTransient, source_id, attempt) <
      plan_.transient_rate) {
    result.kind = FaultKind::kTransient;
    result.latency_ms = plan_.slow_latency_ms;
    result.status = Status::Unavailable(
        std::string(source_id) + ": transient failure on attempt " +
        std::to_string(attempt));
    return result;
  }
  if (UnitDraw(kChannelSlow, source_id, attempt) < plan_.slow_rate) {
    result.kind = FaultKind::kSlow;
    result.latency_ms = plan_.slow_latency_ms;
    return result;
  }
  result.latency_ms = plan_.base_latency_ms;
  return result;
}

std::string FaultInjector::MaybeCorrupt(std::string_view source_id,
                                        std::string_view claim_id,
                                        std::string value) const {
  if (plan_.corrupt_rate <= 0.0) return value;
  const uint64_t claim_hash = Fnv1a64(claim_id);
  if (UnitDraw(kChannelCorrupt, source_id, claim_hash) >=
      plan_.corrupt_rate) {
    return value;
  }
  // Deterministic, visibly-wrong mutation: never equals any clean value
  // (clean values contain no '\x7f'), and distinct claims corrupt
  // differently.
  value += '\x7f';
  value += "corrupt";
  value += static_cast<char>('0' + (claim_hash % 10));
  return value;
}

size_t DegradationReport::quarantined() const {
  size_t n = 0;
  for (const SourceDegradation& s : sources) n += s.quarantined ? 1 : 0;
  return n;
}

size_t DegradationReport::total_retries() const {
  size_t n = 0;
  for (const SourceDegradation& s : sources) n += s.retries;
  return n;
}

size_t DegradationReport::claims_dropped() const {
  size_t n = 0;
  for (const SourceDegradation& s : sources) n += s.claims_dropped;
  return n;
}

size_t DegradationReport::claims_corrupted() const {
  size_t n = 0;
  for (const SourceDegradation& s : sources) n += s.claims_corrupted;
  return n;
}

}  // namespace kg
