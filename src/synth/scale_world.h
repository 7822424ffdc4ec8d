#ifndef KGRAPH_SYNTH_SCALE_WORLD_H_
#define KGRAPH_SYNTH_SCALE_WORLD_H_

#include <cstdint>
#include <functional>
#include <string>

#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace kg::synth {

/// Shape of a synthetic retail-style world sized for the snapshot
/// scale experiments (E25): `num_entities` product entities, each with
/// one brand attribute (a kText value), one category membership (a
/// kClass node), and `related_per_entity` related-product edges.
/// Everything is a closed-form function of (seed, entity index), so a
/// 10M-entity world streams out of O(1) state — no materialized triple
/// list, no RNG history.
struct ScaleWorldSpec {
  uint64_t seed = 42;
  uint64_t num_entities = 10'000;   ///< <= 999'999'999 (9-digit names)
  uint32_t num_categories = 64;
  /// Distinct brand values; 0 picks ~sqrt(num_entities), min 16.
  uint32_t num_brands = 0;
  uint32_t related_per_entity = 3;

  uint32_t EffectiveBrands() const;

  /// Dense-id layout of the compiled snapshot: node names are
  /// zero-padded decimals, so lexicographic order within a kind equals
  /// numeric order and snapshot ids are closed-form:
  ///   entities   (kEntity) -> [0, E)
  ///   brands     (kText)   -> [E, E + B)
  ///   categories (kClass)  -> [E + B, E + B + C)
  uint64_t TotalNodes() const {
    return num_entities + EffectiveBrands() + num_categories;
  }
  uint64_t TotalTriples() const;
};

/// Canonical node names ("e000000042" / "v00000007" / "c0003").
std::string ScaleEntityName(uint64_t i);
std::string ScaleBrandName(uint32_t i);
std::string ScaleCategoryName(uint32_t i);

/// Invokes `sink(s, p, o)` once per triple in exact (s, p, o) order over
/// the dense-id layout above — directly replayable into
/// serve::SnapshotBuilder::Build. Deterministic in `spec` and safe to
/// call any number of times.
void ForEachScaleTriple(
    const ScaleWorldSpec& spec,
    const std::function<void(uint32_t s, uint32_t p, uint32_t o)>& sink);

/// Streams the world straight into a compiled snapshot. Peak transient
/// memory is the builder's 8-bytes-per-posting reorder buffer — no
/// KnowledgeGraph, no triple vector.
serve::KgSnapshot BuildScaleSnapshot(const ScaleWorldSpec& spec);

/// Materializes the same world as a KnowledgeGraph (hash maps, per-name
/// strings). Only sensible at small sizes; exists so tests can check
/// KgSnapshot::Compile(BuildScaleKnowledgeGraph(spec)).Fingerprint() ==
/// BuildScaleSnapshot(spec).Fingerprint() — the streamed and the
/// materialized paths agree bit-for-bit when every brand and every
/// category is drawn by at least one entity and `related_per_entity > 0`.
/// Outside those specs the streamed build still lays out the whole
/// vocabulary (TotalNodes(), all three predicates), while Compile drops
/// the names no triple uses, so the two differ.
graph::KnowledgeGraph BuildScaleKnowledgeGraph(const ScaleWorldSpec& spec);

/// Deterministic serving workload over the world: query `i` is a mix of
/// the four classes (mostly point lookups and neighborhoods, with
/// periodic attribute-by-type scans and top-k shelves).
serve::Query ScaleSampleQuery(const ScaleWorldSpec& spec, uint64_t i);

}  // namespace kg::synth

#endif  // KGRAPH_SYNTH_SCALE_WORLD_H_
