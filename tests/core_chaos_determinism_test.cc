// Chaos twin of core_parallel_determinism_test: with the same
// (seed, FaultPlan) both construction pipelines must degrade
// *identically* at any thread count — same quarantines, same retries,
// same bit-identical KG — and a zero-fault plan must be bit-identical
// to the fault-free pipelines. This is what makes fault injection a
// replayable part of the experiment seed instead of flaky noise.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/entity_kg_pipeline.h"
#include "core/textrich_kg_pipeline.h"

namespace kg::core {
namespace {

constexpr uint64_t kChaosSeed = 1234;

struct EntityChaosResult {
  uint64_t fingerprint = 0;
  size_t triples = 0;
  size_t ingested = 0;  ///< Sources that survived.
  DegradationReport degradation;
};

std::vector<synth::SourceTable> MakeEntitySources(Rng& rng) {
  synth::UniverseOptions uopt;
  uopt.num_people = 100;
  uopt.num_movies = 180;
  uopt.num_songs = 30;
  const auto universe = synth::EntityUniverse::Generate(uopt, rng);
  std::vector<synth::SourceTable> tables;
  for (int s = 0; s < 5; ++s) {
    synth::SourceOptions sopt;
    sopt.name = "src" + std::to_string(s);
    sopt.coverage = 0.5;
    sopt.schema_dialect = s % 3;
    tables.push_back(synth::EmitSource(universe, sopt, rng));
  }
  return tables;
}

EntityChaosResult RunEntityChaos(size_t num_threads,
                                 const FaultPlan* plan) {
  Rng rng(kChaosSeed);
  const auto tables = MakeEntitySources(rng);

  EntityKgBuilder::Options opt;
  opt.forest.num_trees = 15;
  opt.exec = ExecPolicy::WithThreads(num_threads);
  opt.faults = plan;
  EntityKgBuilder builder(synth::SourceDomain::kMovies, opt);

  EntityChaosResult result;
  for (size_t s = 0; s < tables.size(); ++s) {
    const Status status =
        s == 0 ? builder.TryIngestAnchor(tables[s], rng)
               : builder.TryIngestAndLink(tables[s], rng);
    if (status.ok()) ++result.ingested;
  }
  builder.FuseValues();
  result.fingerprint = graph::TripleSetFingerprint(builder.kg());
  result.triples = builder.kg().num_triples();
  result.degradation = builder.degradation();
  return result;
}

void ExpectSameDegradation(const DegradationReport& a,
                           const DegradationReport& b,
                           const std::string& context) {
  ASSERT_EQ(a.sources.size(), b.sources.size()) << context;
  for (size_t i = 0; i < a.sources.size(); ++i) {
    const SourceDegradation& x = a.sources[i];
    const SourceDegradation& y = b.sources[i];
    EXPECT_EQ(x.source, y.source) << context;
    EXPECT_EQ(x.attempts, y.attempts) << context << " " << x.source;
    EXPECT_EQ(x.retries, y.retries) << context << " " << x.source;
    EXPECT_EQ(x.quarantined, y.quarantined) << context << " " << x.source;
    EXPECT_EQ(x.final_status, y.final_status) << context << " " << x.source;
    EXPECT_EQ(x.claims_dropped, y.claims_dropped)
        << context << " " << x.source;
    EXPECT_EQ(x.claims_corrupted, y.claims_corrupted)
        << context << " " << x.source;
    EXPECT_DOUBLE_EQ(x.virtual_ms, y.virtual_ms)
        << context << " " << x.source;
  }
}

TEST(ChaosDeterminismTest, EntityPipelineIdenticalAt1_2_8Threads) {
  const FaultPlan plan = FaultPlan::Uniform(kChaosSeed, 0.25);
  const EntityChaosResult serial = RunEntityChaos(1, &plan);
  ASSERT_GT(serial.triples, 0u);
  ASSERT_GT(serial.ingested, 0u);
  for (size_t threads : {2u, 8u}) {
    const EntityChaosResult parallel = RunEntityChaos(threads, &plan);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << threads << " threads";
    EXPECT_EQ(parallel.triples, serial.triples) << threads << " threads";
    EXPECT_EQ(parallel.ingested, serial.ingested) << threads << " threads";
    ExpectSameDegradation(parallel.degradation, serial.degradation,
                          std::to_string(threads) + " threads");
  }
}

TEST(ChaosDeterminismTest, EntityZeroFaultPlanBitIdenticalToNoPlan) {
  const FaultPlan zero;  // All rates zero: layer runs, injects nothing.
  const EntityChaosResult bare = RunEntityChaos(2, nullptr);
  const EntityChaosResult zeroed = RunEntityChaos(2, &zero);
  EXPECT_EQ(zeroed.fingerprint, bare.fingerprint);
  EXPECT_EQ(zeroed.triples, bare.triples);
  EXPECT_EQ(zeroed.ingested, bare.ingested);
  // The bare run skips accounting entirely; the zero plan records one
  // healthy single-attempt row per source.
  EXPECT_TRUE(bare.degradation.sources.empty());
  ASSERT_EQ(zeroed.degradation.sources.size(), 5u);
  for (const SourceDegradation& row : zeroed.degradation.sources) {
    EXPECT_FALSE(row.quarantined);
    EXPECT_EQ(row.attempts, 1u);
    EXPECT_EQ(row.retries, 0u);
    EXPECT_EQ(row.claims_corrupted, 0u);
  }
}

TEST(ChaosDeterminismTest,
     EntityTransientFaultsCompleteAndQuarantineOnlyTerminalSources) {
  FaultPlan plan;
  plan.seed = kChaosSeed;
  plan.transient_rate = 0.2;
  plan.slow_rate = 0.1;
  plan.terminal_rate = 0.25;
  const EntityChaosResult result = RunEntityChaos(2, &plan);
  // The pipeline must complete on the survivors...
  EXPECT_GT(result.triples, 0u);
  EXPECT_GT(result.ingested, 0u);
  ASSERT_EQ(result.degradation.sources.size(), 5u);
  // ...and quarantine exactly the terminally-dead sources: 20%
  // transients never exhaust the retry budget for this seed.
  const FaultInjector injector(plan);
  for (const SourceDegradation& row : result.degradation.sources) {
    EXPECT_EQ(row.quarantined, injector.IsTerminal(row.source))
        << row.source;
    if (!row.quarantined && row.retries > 0) {
      EXPECT_TRUE(row.final_status.ok());
    }
  }
  EXPECT_EQ(result.ingested + result.degradation.quarantined(), 5u);
}

TEST(ChaosDeterminismTest, EntityChaosEventCountersMatchDegradation) {
  // Each degradation row carries its source's retry outcome: every
  // source was attempted, its retries are its attempts after the first,
  // a quarantined source ended on its failure status, and every survivor
  // ended OK and was ingested.
  const FaultPlan plan = FaultPlan::Uniform(kChaosSeed, 0.25);
  const EntityChaosResult result = RunEntityChaos(2, &plan);
  ASSERT_FALSE(result.degradation.sources.empty());
  size_t survivors = 0;
  for (const SourceDegradation& row : result.degradation.sources) {
    EXPECT_GE(row.attempts, 1u) << row.source;
    EXPECT_EQ(row.retries, row.attempts - 1) << row.source;
    EXPECT_EQ(row.final_status.ok(), !row.quarantined) << row.source;
    if (!row.quarantined) ++survivors;
  }
  EXPECT_EQ(survivors, result.ingested);
  EXPECT_GT(result.degradation.total_retries(), 0u);
}

struct TextRichChaosResult {
  uint64_t fingerprint = 0;
  TextRichBuildReport report;
  DegradationReport degradation;
};

TextRichChaosResult RunTextRichChaos(size_t num_threads,
                                     const FaultPlan* plan) {
  Rng rng(7);
  synth::CatalogOptions copt;
  copt.num_types = 8;
  copt.num_products = 200;
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);
  synth::BehaviorOptions bopt;
  bopt.num_searches = 2500;
  const auto behavior = synth::GenerateBehavior(catalog, bopt, rng);

  TextRichBuildOptions opt;
  opt.exec = ExecPolicy::WithThreads(num_threads);
  opt.faults = plan;
  opt.retry.max_attempts = 5;
  auto build = TryBuildTextRichKg(catalog, behavior, opt, rng);
  EXPECT_TRUE(build.ok()) << build.status();
  TextRichChaosResult result;
  result.fingerprint = graph::TripleSetFingerprint(build->kg);
  result.report = build->report;
  result.degradation = std::move(build->degradation);
  return result;
}

TEST(ChaosDeterminismTest, TextRichPipelineIdenticalAt1_2_8Threads) {
  const FaultPlan plan = FaultPlan::Uniform(kChaosSeed, 0.25);
  const TextRichChaosResult serial = RunTextRichChaos(1, &plan);
  ASSERT_GT(serial.report.kg_triples, 0u);
  for (size_t threads : {2u, 8u}) {
    const TextRichChaosResult parallel = RunTextRichChaos(threads, &plan);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << threads << " threads";
    EXPECT_EQ(parallel.report.extracted_assertions,
              serial.report.extracted_assertions);
    EXPECT_EQ(parallel.report.pages_quarantined,
              serial.report.pages_quarantined);
    EXPECT_EQ(parallel.report.kg_triples, serial.report.kg_triples);
    ExpectSameDegradation(parallel.degradation, serial.degradation,
                          std::to_string(threads) + " threads");
  }
}

TEST(ChaosDeterminismTest, TextRichZeroFaultPlanBitIdenticalToNoPlan) {
  const FaultPlan zero;
  const TextRichChaosResult bare = RunTextRichChaos(2, nullptr);
  const TextRichChaosResult zeroed = RunTextRichChaos(2, &zero);
  EXPECT_EQ(zeroed.fingerprint, bare.fingerprint);
  EXPECT_EQ(zeroed.report.extracted_assertions,
            bare.report.extracted_assertions);
  EXPECT_TRUE(bare.degradation.sources.empty());
  EXPECT_EQ(zeroed.degradation.sources.size(), 200u);
  EXPECT_EQ(zeroed.degradation.quarantined(), 0u);
}

TEST(ChaosDeterminismTest,
     TextRichTransientFaultsCompleteAndQuarantineOnlyTerminalPages) {
  FaultPlan plan;
  plan.seed = kChaosSeed;
  plan.transient_rate = 0.2;
  plan.terminal_rate = 0.05;
  const TextRichChaosResult result = RunTextRichChaos(2, &plan);
  EXPECT_GT(result.report.kg_triples, 0u);
  const FaultInjector injector(plan);
  size_t terminal_pages = 0;
  for (const SourceDegradation& row : result.degradation.sources) {
    EXPECT_EQ(row.quarantined, injector.IsTerminal(row.source))
        << row.source;
    if (injector.IsTerminal(row.source)) ++terminal_pages;
  }
  EXPECT_EQ(result.report.pages_quarantined, terminal_pages);
  EXPECT_GT(terminal_pages, 0u);
  EXPECT_LT(terminal_pages, result.degradation.sources.size() / 4);
  // Degradation is proportional: surviving pages still produce
  // assertions at the healthy per-page rate (no cliff).
  const TextRichChaosResult healthy = RunTextRichChaos(2, nullptr);
  const double surviving =
      1.0 - static_cast<double>(terminal_pages) /
                static_cast<double>(result.degradation.sources.size());
  const double yield_ratio =
      static_cast<double>(result.report.extracted_assertions) /
      static_cast<double>(healthy.report.extracted_assertions);
  EXPECT_GT(yield_ratio, surviving - 0.1);
  EXPECT_LE(yield_ratio, 1.0);
}

}  // namespace
}  // namespace kg::core
