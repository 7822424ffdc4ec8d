#ifndef KGRAPH_CORE_ENTITY_KG_PIPELINE_H_
#define KGRAPH_CORE_ENTITY_KG_PIPELINE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/rng.h"
#include "core/conversions.h"
#include "graph/knowledge_graph.h"
#include "integrate/fusion.h"
#include "obs/trace.h"
#include "integrate/linkage.h"
#include "synth/structured_source.h"

namespace kg::core {

/// Per-source ingestion report (the rows of the E13 experiment).
struct SourceIngestReport {
  std::string source;
  size_t records = 0;
  size_t linked = 0;        ///< Records merged into existing entities.
  size_t new_entities = 0;  ///< Records that created entities.
  double linkage_precision = 0.0;  ///< Vs hidden truth (when known).
  double linkage_recall = 0.0;
  size_t kg_entities_after = 0;
  size_t kg_triples_after = 0;
};

/// Figure 4a as a runnable pipeline: knowledge transformation of an
/// anchor source, then per-source knowledge integration — schema
/// alignment (manual mapping), RF entity linkage trained on a bounded
/// label budget, and value fusion (vote or ACCU) at the end.
class EntityKgBuilder {
 public:
  struct Options {
    /// Human labels spent training the linker per ingested source.
    size_t linkage_label_budget = 1500;
    double linkage_threshold = 0.6;
    ml::ForestOptions forest;
    bool use_accu_fusion = true;
    /// Sharding of the hot loops (candidate pairing, featurization, RF
    /// scoring, claim staging). Output is bit-identical for any thread
    /// count. When parallel and `forest.num_threads` is 1, tree training
    /// inherits `exec.num_threads`.
    ExecPolicy exec;
    /// Optional structured tracer (not owned). Each ingest/fuse call
    /// records a root span with per-stage children, each carrying its
    /// item count as "items" (Tracer::RollUp sums them per stage); a
    /// faulted fetch records its "attempts" and "virtual_ms". Span ids
    /// are pure functions of (tracer seed, span path), so seeded builds
    /// replay identical trace structure at any thread count.
    obs::Tracer* tracer = nullptr;
    /// Optional chaos profile applied to every ingested source (not
    /// owned). Null skips the fault layer entirely; a plan with all
    /// rates zero runs the layer but leaves output bit-identical to the
    /// null case. Faulting callers must use the `Try*` entry points.
    const FaultPlan* faults = nullptr;
    /// Retry/backoff/breaker/deadline policy for flaky source fetches.
    /// Jitter is drawn from `Rng::Split(hash(source))`, never wall
    /// clock, so retried runs replay bit-for-bit.
    RetryPolicy retry;
  };

  EntityKgBuilder(synth::SourceDomain domain, const Options& options);

  /// Transforms the anchor source (Wikipedia-infobox role, §2.1): every
  /// record becomes an entity. `truth` = hidden universe ids, used only
  /// for reports and the simulated labeling oracle. Requires a
  /// fault-free configuration (aborts on quarantine); faulting callers
  /// use `TryIngestAnchor`.
  void IngestAnchor(const synth::SourceTable& table, Rng& rng);

  /// Integrates a further source (§2.2): aligns its schema, trains a
  /// linker on `linkage_label_budget` oracle-labeled pairs, links records
  /// to existing entities, creates entities for the rest, and stages all
  /// values as fusion claims. Fault-free configurations only, like
  /// `IngestAnchor`.
  void IngestAndLink(const synth::SourceTable& table, Rng& rng);

  /// Fault-aware `IngestAnchor`: fetches the source through the
  /// retry/backoff/breaker layer of `Options::faults`/`Options::retry`.
  /// Returns OK when the (possibly truncated/corrupted) payload was
  /// ingested; a non-OK status means the source was quarantined — the
  /// builder stays consistent, later sources still ingest, and the
  /// outcome is recorded in `degradation()`. Graceful degradation is the
  /// caller continuing past non-OK returns.
  Status TryIngestAnchor(const synth::SourceTable& table, Rng& rng);

  /// Fault-aware `IngestAndLink` (same quarantine contract as
  /// `TryIngestAnchor`).
  Status TryIngestAndLink(const synth::SourceTable& table, Rng& rng);

  /// Resolves conflicting attribute values across sources and writes the
  /// fused triples into the KG.
  void FuseValues();

  const graph::KnowledgeGraph& kg() const { return kg_; }
  const std::vector<SourceIngestReport>& reports() const {
    return reports_;
  }

  /// Per-source fault/retry/quarantine accounting. Empty unless
  /// `Options::faults` was set (a zero-rate plan still yields one
  /// healthy row per source).
  const DegradationReport& degradation() const { return degradation_; }

  /// Fraction of fused attribute values equal to the universe truth —
  /// computable because entities carry their hidden ids. `truth_of`
  /// supplies canonical values: (universe id, attribute) -> value.
  double KgAccuracy(
      const std::map<std::pair<uint32_t, std::string>, std::string>&
          truth_of) const;

 private:
  struct EntityState {
    graph::NodeId node = 0;
    uint32_t hidden_truth = 0;  ///< Universe id (reporting only).
    integrate::Record merged;   ///< Current attribute view for linkage.
  };

  std::string NextEntityName();

  /// Runs the fault/retry layer for `table` and records a degradation
  /// row. On OK, `*payload` holds the delivered copy only when faults
  /// actually touched it (truncation/corruption); otherwise callers use
  /// the original table unchanged, keeping the zero-fault path
  /// copy-free and bit-identical.
  Status FetchSource(const synth::SourceTable& table, const Rng& rng,
                     std::optional<synth::SourceTable>* payload);

  void IngestAnchorImpl(const synth::SourceTable& table, Rng& rng);
  void IngestAndLinkImpl(const synth::SourceTable& table, Rng& rng);

  synth::SourceDomain domain_;
  Options options_;
  graph::KnowledgeGraph kg_;
  std::vector<EntityState> entities_;
  std::vector<SourceIngestReport> reports_;
  // (entity index, attribute) -> claims from sources.
  std::map<std::pair<size_t, std::string>, std::vector<integrate::Claim>>
      claims_;
  size_t entity_counter_ = 0;
  DegradationReport degradation_;
  /// One breaker per source name, persistent across re-fetches.
  std::map<std::string, CircuitBreaker> breakers_;
};

}  // namespace kg::core

#endif  // KGRAPH_CORE_ENTITY_KG_PIPELINE_H_
