#ifndef KGRAPH_INGEST_CRAWL_H_
#define KGRAPH_INGEST_CRAWL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "store/wal.h"
#include "synth/entity_universe.h"
#include "synth/structured_source.h"
#include "synth/website_generator.h"

namespace kg::ingest {

/// What one crawl unit is: a slice of a structured catalog or a single
/// semi-structured web page.
enum class UnitKind : uint8_t {
  kCatalogChunk = 0,
  kWebPage = 1,
};

/// One unit of crawl work. Units reference their source by index into
/// the owning CrawlPlan (stable, copyable, cheap to queue). `seq` is the
/// unit's submission ticket: the committer applies unit batches in seq
/// order, which is the whole determinism story of the pipeline — the
/// mutation log is a pure function of the plan, not of scheduling.
struct CrawlUnit {
  UnitKind kind = UnitKind::kCatalogChunk;
  uint32_t source_index = 0;  ///< Into plan.tables or plan.websites.
  uint32_t begin = 0;         ///< First record (catalog) / page index (web).
  uint32_t end = 0;           ///< One-past-last record; begin+1 for pages.
  std::string unit_id;        ///< "<source>#<k>" — the fault-channel key.
  uint64_t seq = 0;           ///< Submission ticket (index in plan.units).
};

/// Shape of the synthetic crawl frontier.
struct CrawlPlanOptions {
  /// Structured catalog sources (round-robin over people/movies/music,
  /// cycling schema dialects).
  size_t num_catalog_sources = 3;
  size_t records_per_chunk = 16;
  /// Semi-structured websites (round-robin over the three domains).
  size_t num_websites = 3;
  size_t pages_per_site = 60;
  /// Source noise profile. Name noise is kept at zero by default so
  /// surface linkage is exact and answer-divergence gates are sharp;
  /// crank it to study lossy linkage instead.
  double coverage = 0.5;
  double popularity_bias = 0.7;
  double duplicate_rate = 0.05;
  double name_noise = 0.0;
  double value_accuracy = 1.0;
  double missing_rate = 0.05;
  /// Website noise (decoys/drift stay on by default — extraction, unlike
  /// linkage, is supposed to be fallible here).
  double label_drift = 0.05;
  double decoy_rate = 0.05;
  double attr_missing_rate = 0.08;
};

/// A fully materialized crawl frontier: the noisy sources plus the unit
/// list, interleaved round-robin across sources so every worker count
/// sees the same mix. Pure function of (universe, options, rng).
struct CrawlPlan {
  std::vector<synth::SourceTable> tables;
  std::vector<synth::Website> websites;
  std::vector<CrawlUnit> units;

  size_t num_units() const { return units.size(); }
};

CrawlPlan BuildCrawlPlan(const synth::EntityUniverse& universe,
                         const CrawlPlanOptions& options, Rng& rng);

/// Linkage/dedup for streaming ingest: resolves a noisy subject surface
/// to a canonical KG node name. Known entities (those with a name/title
/// triple in the base graph) resolve to their existing node; unknown
/// surfaces map to a synthetic canonical name ("person~<normalized>"),
/// which is a pure function of the surface — so two units mentioning the
/// same new entity dedup to one node no matter which commits first.
///
/// Immutable after construction; shared by all workers.
class SurfaceLinker {
 public:
  /// Indexes `base`'s name/title triples (first-writer-wins, the same
  /// disambiguation rule as dual::KgAnswerer).
  explicit SurfaceLinker(const graph::KnowledgeGraph& base);

  /// Canonical node name for a person surface.
  std::string ResolvePerson(const std::string& surface) const;

  /// Canonical node name for the subject of a `domain` record.
  std::string ResolveSubject(synth::SourceDomain domain,
                             const std::string& surface) const;

  size_t known_people() const { return by_name_.size(); }
  size_t known_titles() const { return by_title_.size(); }

 private:
  /// normalized person name -> canonical node name.
  std::unordered_map<std::string, std::string> by_name_;
  /// normalized movie/song title -> canonical node name.
  std::unordered_map<std::string, std::string> by_title_;
};

/// Everything one processed unit produced. `mutations` is empty when the
/// unit was dropped (terminal fault / retries exhausted) — recorded in
/// `status` so the degradation report can say why.
struct UnitResult {
  uint64_t seq = 0;
  std::string unit_id;
  Status status;  ///< OK, or why the unit's payload was lost.
  std::vector<store::Mutation> mutations;
  size_t records_in = 0;       ///< Records/pages the unit carried.
  size_t records_dropped = 0;  ///< Lost to fault truncation.
  size_t claims_corrupted = 0;
  size_t retries = 0;
  double virtual_ms = 0.0;  ///< Chaos latency + backoff (virtual time).
  /// Wall-clock stage timings, microseconds.
  double fetch_us = 0.0;
  double extract_us = 0.0;
  double link_us = 0.0;
};

/// Chaos + retry context shared by every unit of a run.
struct UnitContext {
  const FaultInjector* faults = nullptr;  ///< Null = no chaos.
  RetryPolicy retry;
  uint64_t seed = 1;  ///< Base of the per-unit backoff-jitter streams.
};

/// Processes one unit end to end — fetch (with fault
/// injection/retry/per-unit circuit breaker), extract, link — and
/// returns the unit's mutation batch. Pure function of (plan, unit,
/// linker, ctx): no shared mutable state, so any number of workers can
/// run units concurrently and the results only ever differ in wall-clock
/// stage timings.
UnitResult ProcessUnit(const CrawlPlan& plan, const CrawlUnit& unit,
                       const SurfaceLinker& linker, const UnitContext& ctx);

/// Applies a mutation to a plain KnowledgeGraph with the exact semantics
/// a VersionedKgStore commit has on its knowledge (upsert =
/// AddTriple provenance-append; retract of an absent triple = no-op).
/// The oracle mirror every ingest gate compares against.
void ApplyMutationToKg(graph::KnowledgeGraph& kg, const store::Mutation& m);

/// Offline oracle: runs every unit serially in seq order over a copy of
/// `base` and returns the resulting graph. A drained pipeline's store
/// must fingerprint-match this exactly (TripleSetFingerprint ==
/// VersionedKgStore::AuthoritativeFingerprint). `degradation` (optional)
/// receives one row per unit that saw faults; `total_mutations`
/// (optional) receives the committed-mutation count for the
/// zero-lost-upserts gate.
graph::KnowledgeGraph OfflineRebuild(const CrawlPlan& plan,
                                     const graph::KnowledgeGraph& base,
                                     const SurfaceLinker& linker,
                                     const UnitContext& ctx,
                                     DegradationReport* degradation = nullptr,
                                     uint64_t* total_mutations = nullptr);

}  // namespace kg::ingest

#endif  // KGRAPH_INGEST_CRAWL_H_
