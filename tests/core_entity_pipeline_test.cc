#include "core/entity_kg_pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace kg::core {
namespace {

struct World {
  synth::EntityUniverse universe;
  std::map<std::pair<uint32_t, std::string>, std::string> truth;
};

World MakeWorld(uint64_t seed) {
  synth::UniverseOptions uopt;
  uopt.num_people = 200;
  uopt.num_movies = 400;
  uopt.num_songs = 50;
  Rng rng(seed);
  World world{synth::EntityUniverse::Generate(uopt, rng), {}};
  for (const auto& m : world.universe.movies()) {
    world.truth[{m.id, "title"}] = m.title;
    world.truth[{m.id, "release_year"}] = std::to_string(m.release_year);
    world.truth[{m.id, "genre"}] = m.genre;
    world.truth[{m.id, "director"}] =
        world.universe.people()[m.director].name;
  }
  return world;
}

TEST(EntityKgBuilderTest, AnchorIngestCreatesEntities) {
  World world = MakeWorld(1);
  Rng rng(2);
  synth::SourceOptions wiki;
  wiki.name = "wikipedia";
  wiki.coverage = 0.5;
  const auto table = synth::EmitSource(world.universe, wiki, rng);
  EntityKgBuilder::Options opt;
  EntityKgBuilder builder(synth::SourceDomain::kMovies, opt);
  builder.IngestAnchor(table, rng);
  ASSERT_EQ(builder.reports().size(), 1u);
  EXPECT_EQ(builder.reports()[0].new_entities, table.records.size());
}

TEST(EntityKgBuilderTest, LinkingMergesSharedEntities) {
  World world = MakeWorld(3);
  Rng rng(4);
  synth::SourceOptions wiki, imdb;
  wiki.name = "wikipedia";
  wiki.coverage = 0.6;
  imdb.name = "imdb";
  imdb.coverage = 0.6;
  imdb.schema_dialect = 1;
  const auto wiki_table = synth::EmitSource(world.universe, wiki, rng);
  const auto imdb_table = synth::EmitSource(world.universe, imdb, rng);
  EntityKgBuilder::Options opt;
  opt.forest.num_trees = 25;
  EntityKgBuilder builder(synth::SourceDomain::kMovies, opt);
  builder.IngestAnchor(wiki_table, rng);
  builder.IngestAndLink(imdb_table, rng);
  const auto& report = builder.reports()[1];
  // Substantial overlap should be linked, precisely.
  EXPECT_GT(report.linked, imdb_table.records.size() / 4);
  EXPECT_GT(report.linkage_precision, 0.9);
  EXPECT_GT(report.linkage_recall, 0.5);
  // Entities grow but far less than the sum of records.
  EXPECT_LT(report.kg_entities_after,
            wiki_table.records.size() + imdb_table.records.size());
}

TEST(EntityKgBuilderTest, FusionProducesAccurateKg) {
  World world = MakeWorld(5);
  Rng rng(6);
  synth::SourceOptions wiki, imdb, third;
  wiki.name = "wikipedia";
  wiki.coverage = 0.5;
  wiki.value_accuracy = 0.98;
  imdb.name = "imdb";
  imdb.coverage = 0.7;
  imdb.schema_dialect = 1;
  imdb.value_accuracy = 0.95;
  third.name = "webdb";
  third.coverage = 0.5;
  third.schema_dialect = 2;
  third.value_accuracy = 0.8;
  EntityKgBuilder::Options opt;
  opt.forest.num_trees = 25;
  EntityKgBuilder builder(synth::SourceDomain::kMovies, opt);
  builder.IngestAnchor(synth::EmitSource(world.universe, wiki, rng), rng);
  builder.IngestAndLink(synth::EmitSource(world.universe, imdb, rng),
                        rng);
  builder.IngestAndLink(synth::EmitSource(world.universe, third, rng),
                        rng);
  builder.FuseValues();
  EXPECT_GT(builder.kg().num_triples(), 500u);
  // Fused values beat the worst source's accuracy comfortably.
  EXPECT_GT(builder.KgAccuracy(world.truth), 0.85);
}

TEST(EntityKgBuilderTest, VoteFusionAlsoWorks) {
  World world = MakeWorld(7);
  Rng rng(8);
  synth::SourceOptions wiki;
  wiki.name = "wikipedia";
  wiki.coverage = 0.4;
  EntityKgBuilder::Options opt;
  opt.use_accu_fusion = false;
  EntityKgBuilder builder(synth::SourceDomain::kMovies, opt);
  builder.IngestAnchor(synth::EmitSource(world.universe, wiki, rng), rng);
  builder.FuseValues();
  EXPECT_GT(builder.KgAccuracy(world.truth), 0.8);
}

// The three-source build of FusionProducesAccurateKg, fetched through
// the fault layer under a zero-rate plan and traced when `tracer` is
// set.
struct ThreeSourceBuild {
  uint64_t fingerprint = 0;
  size_t anchor_records = 0;
  size_t linked_records = 0;  // both linked sources
  size_t triples = 0;
};

ThreeSourceBuild BuildThreeSources(obs::Tracer* tracer) {
  const World world = MakeWorld(5);
  Rng rng(6);
  synth::SourceOptions wiki, imdb, third;
  wiki.name = "wikipedia";
  wiki.coverage = 0.5;
  wiki.value_accuracy = 0.98;
  imdb.name = "imdb";
  imdb.coverage = 0.7;
  imdb.schema_dialect = 1;
  imdb.value_accuracy = 0.95;
  third.name = "webdb";
  third.coverage = 0.5;
  third.schema_dialect = 2;
  third.value_accuracy = 0.8;
  const auto t_wiki = synth::EmitSource(world.universe, wiki, rng);
  const auto t_imdb = synth::EmitSource(world.universe, imdb, rng);
  const auto t_third = synth::EmitSource(world.universe, third, rng);
  const FaultPlan no_faults;
  EntityKgBuilder::Options opt;
  opt.forest.num_trees = 25;
  opt.faults = &no_faults;
  opt.tracer = tracer;
  EntityKgBuilder builder(synth::SourceDomain::kMovies, opt);
  EXPECT_TRUE(builder.TryIngestAnchor(t_wiki, rng).ok());
  EXPECT_TRUE(builder.TryIngestAndLink(t_imdb, rng).ok());
  EXPECT_TRUE(builder.TryIngestAndLink(t_third, rng).ok());
  builder.FuseValues();
  return ThreeSourceBuild{graph::TripleSetFingerprint(builder.kg()),
                          t_wiki.records.size(),
                          t_imdb.records.size() + t_third.records.size(),
                          builder.kg().num_triples()};
}

const obs::StageRow* FindRow(const std::vector<obs::StageRow>& rows,
                             std::string_view stage) {
  for (const obs::StageRow& row : rows) {
    if (row.stage == stage) return &row;
  }
  return nullptr;
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(EntityKgBuilderTest, TracedBuildRollsUpEveryStage) {
  const ThreeSourceBuild untraced = BuildThreeSources(nullptr);
  obs::FixedTraceClock clock;
  obs::Tracer tracer(42, &clock);
  const ThreeSourceBuild traced = BuildThreeSources(&tracer);
  EXPECT_EQ(traced.fingerprint, untraced.fingerprint);
#ifndef KG_OBS_NOOP
  struct Stage {
    const char* span;
    size_t calls;
    uint64_t items;
  };
  // Items per stage: the anchor's records; the candidate and training
  // pairs of the two linked sources (the pool size is pinned for this
  // seeded fixture; training spends the full 1500-label budget twice);
  // every linked record; one fused claim key per triple.
  const Stage stages[] = {
      {"entity.ingest_anchor", 1, untraced.anchor_records},
      {"pair_pool", 2, 11566},
      {"train_linker", 2, 2 * 1500},
      {"link", 2, untraced.linked_records},
      {"stage_claims", 2, untraced.linked_records},
      {"entity.fuse", 1, untraced.triples},
  };
  const std::vector<obs::StageRow> rows = obs::Tracer::RollUp(&tracer);
  for (const Stage& stage : stages) {
    const obs::StageRow* row = FindRow(rows, stage.span);
    ASSERT_NE(row, nullptr) << stage.span;
    EXPECT_EQ(row->calls, stage.calls) << stage.span;
    EXPECT_EQ(row->items, stage.items) << stage.span;
  }
  // Each fetch's virtual retry cost rides on its span: one healthy
  // attempt at the plan's 1 ms base latency per source.
  const obs::StageRow* fetch = FindRow(rows, "entity.fetch_source");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->calls, 3u);
  EXPECT_EQ(CountOf(tracer.ToJson(),
                    "\"attempts\":\"1\",\"virtual_ms\":\"1.000\""),
            3u);
#endif
}

}  // namespace
}  // namespace kg::core
