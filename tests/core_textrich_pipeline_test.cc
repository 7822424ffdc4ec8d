#include "core/textrich_kg_pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace kg::core {
namespace {

TEST(TextRichKgBuildTest, EndToEndBuildsBipartiteGraph) {
  Rng rng(1);
  synth::CatalogOptions copt;
  copt.num_types = 16;
  copt.num_products = 600;
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);
  synth::BehaviorOptions bopt;
  bopt.num_searches = 15000;
  const auto behavior = synth::GenerateBehavior(catalog, bopt, rng);

  TextRichBuildOptions opt;
  const auto build = BuildTextRichKg(catalog, behavior, opt, rng);
  EXPECT_EQ(build.report.products, 600u);
  EXPECT_GT(build.report.extracted_assertions, 1000u);
  // The assembled KG is mostly bipartite: most triples end in text.
  EXPECT_GT(build.report.text_object_fraction, 0.6);
  EXPECT_GT(build.report.kg_triples, 1000u);
  // Cleaning does not reduce accuracy.
  EXPECT_GE(build.report.accuracy_after_cleaning + 0.02,
            build.report.accuracy_before_cleaning);
  EXPECT_GT(build.report.accuracy_after_cleaning, 0.8);
  EXPECT_GT(build.report.hypernyms_mined, 0u);
}

TEST(TextRichKgBuildTest, CleaningFlagControlsStage) {
  Rng rng(2);
  synth::CatalogOptions copt;
  copt.num_types = 8;
  copt.num_products = 200;
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);
  synth::BehaviorOptions bopt;
  bopt.num_searches = 2000;
  const auto behavior = synth::GenerateBehavior(catalog, bopt, rng);
  TextRichBuildOptions no_clean;
  no_clean.clean = false;
  no_clean.mine_taxonomy = false;
  const auto build = BuildTextRichKg(catalog, behavior, no_clean, rng);
  EXPECT_EQ(build.report.extracted_assertions,
            build.report.after_cleaning);
  EXPECT_EQ(build.report.synonyms_added, 0u);
}

// The CleaningFlagControlsStage world with every stage on, fetched
// through the fault layer under a zero-rate plan and traced when
// `tracer` is set.
struct SmallBuild {
  TextRichKgBuild build;
  size_t searches = 0;
};

SmallBuild BuildSmallWorld(obs::Tracer* tracer) {
  Rng rng(2);
  synth::CatalogOptions copt;
  copt.num_types = 8;
  copt.num_products = 200;
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);
  synth::BehaviorOptions bopt;
  bopt.num_searches = 2000;
  const auto behavior = synth::GenerateBehavior(catalog, bopt, rng);
  const FaultPlan no_faults;
  TextRichBuildOptions opt;
  opt.faults = &no_faults;
  opt.tracer = tracer;
  Result<TextRichKgBuild> build =
      TryBuildTextRichKg(catalog, behavior, opt, rng);
  EXPECT_TRUE(build.ok()) << build.status();
  return SmallBuild{std::move(build).value(), behavior.searches.size()};
}

const obs::StageRow* FindRow(const std::vector<obs::StageRow>& rows,
                             std::string_view stage) {
  for (const obs::StageRow& row : rows) {
    if (row.stage == stage) return &row;
  }
  return nullptr;
}

TEST(TextRichKgBuildTest, TracedBuildRollsUpEveryStage) {
  const SmallBuild untraced = BuildSmallWorld(nullptr);
  obs::FixedTraceClock clock;
  obs::Tracer tracer(42, &clock);
  const SmallBuild traced = BuildSmallWorld(&tracer);
  EXPECT_EQ(graph::TripleSetFingerprint(traced.build.kg),
            graph::TripleSetFingerprint(untraced.build.kg));
#ifndef KG_OBS_NOOP
  const TextRichBuildReport& report = untraced.build.report;
  struct Stage {
    const char* span;
    uint64_t items;
  };
  // Items per stage: the distant-supervision training examples (pinned
  // for this seeded fixture), every product page (split across the
  // "chunk@<begin>" spans too), the extracted assertions, the search
  // log, and the assertions kept for assembly.
  const Stage stages[] = {
      {"fit_extractor", 239},
      {"extract_pages", report.products},
      {"chunk", report.products},
      {"clean", report.extracted_assertions},
      {"mine_taxonomy", untraced.searches},
      {"assemble", report.after_cleaning},
  };
  const std::vector<obs::StageRow> rows = obs::Tracer::RollUp(&tracer);
  for (const Stage& stage : stages) {
    const obs::StageRow* row = FindRow(rows, stage.span);
    ASSERT_NE(row, nullptr) << stage.span;
    EXPECT_EQ(row->items, stage.items) << stage.span;
  }
  // The page fetches' summed virtual retry cost rides on
  // "extract_pages": one healthy 1 ms attempt per page.
  EXPECT_NE(tracer.ToJson().find(
                "\"attempts\":\"200\",\"virtual_ms\":\"200.000\""),
            std::string::npos);
#endif
}

}  // namespace
}  // namespace kg::core
