#ifndef KGRAPH_CORE_TEXTRICH_KG_PIPELINE_H_
#define KGRAPH_CORE_TEXTRICH_KG_PIPELINE_H_

#include "common/exec_policy.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "obs/trace.h"
#include "synth/behavior_generator.h"
#include "synth/catalog_generator.h"
#include "textrich/taxonomy_mining.h"

namespace kg::core {

/// Figure 4b / AutoKnow-style self-driving collection, end to end.
struct TextRichBuildOptions {
  /// Products used to train the extractor (distant supervision).
  double train_fraction = 0.5;
  /// Merge structured catalog values where extraction found nothing.
  bool backfill_from_catalog = true;
  bool clean = true;
  bool mine_taxonomy = true;
  /// Sharding of the per-page extraction loop (the pipeline's hot path).
  /// Page results land in index-addressed slots and are merged in page
  /// order, so the built KG is bit-identical for any thread count.
  ExecPolicy exec;
  /// Optional structured tracer (not owned). The build records a
  /// "textrich.build" root with one child per stage, plus a
  /// "chunk@<begin>" child per extraction chunk (named by the chunk's
  /// begin index, so span ids stay deterministic under any schedule).
  /// Every span carries its item count as "items"; with `faults`,
  /// "extract_pages" also records the fetch "attempts" and
  /// "virtual_ms".
  obs::Tracer* tracer = nullptr;
  /// Optional chaos profile applied per product page (not owned). Each
  /// page is a "source" (id "page:<product id>"): its fetch retries
  /// under `retry`, and exhausted pages are quarantined — the build
  /// completes on the surviving pages. Fault decisions and jitter are
  /// pure functions of (plan seed, page id, attempt), so a faulted
  /// build is still bit-identical at any thread count.
  const FaultPlan* faults = nullptr;
  RetryPolicy retry;
};

struct TextRichBuildReport {
  size_t products = 0;
  size_t pages_quarantined = 0;
  size_t extracted_assertions = 0;
  size_t after_cleaning = 0;
  /// Value-level accuracy of assertions vs latent truth, before and
  /// after cleaning.
  double accuracy_before_cleaning = 0.0;
  double accuracy_after_cleaning = 0.0;
  size_t synonyms_added = 0;
  size_t hypernyms_mined = 0;
  size_t kg_triples = 0;
  double text_object_fraction = 0.0;
};

struct TextRichKgBuild {
  graph::KnowledgeGraph kg;
  TextRichBuildReport report;
  textrich::MinedTaxonomy mined;
  /// Per-page fault/retry/quarantine rows (page order). Empty unless
  /// `TextRichBuildOptions::faults` was set.
  DegradationReport degradation;
};

/// Runs extract -> clean -> enrich -> assemble over the product world.
/// Requires a fault-free configuration (aborts otherwise); faulting
/// callers use `TryBuildTextRichKg`.
TextRichKgBuild BuildTextRichKg(const synth::ProductCatalog& catalog,
                                const synth::BehaviorLog& behavior,
                                const TextRichBuildOptions& options,
                                Rng& rng);

/// Fault-aware build: pages whose retries/breaker/deadline are exhausted
/// are quarantined (contributing no assertions) and the build completes
/// on the surviving pages, with the losses accounted in
/// `TextRichKgBuild::degradation`. Non-OK only on internal failure,
/// never because pages degraded.
Result<TextRichKgBuild> TryBuildTextRichKg(
    const synth::ProductCatalog& catalog,
    const synth::BehaviorLog& behavior,
    const TextRichBuildOptions& options, Rng& rng);

}  // namespace kg::core

#endif  // KGRAPH_CORE_TEXTRICH_KG_PIPELINE_H_
