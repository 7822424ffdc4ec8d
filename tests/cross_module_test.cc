// Cross-module integration: construct a KG through the entity pipeline
// and answer structured queries over it — the lifecycle a downstream user
// exercises.

#include <gtest/gtest.h>

#include "core/entity_kg_pipeline.h"
#include "graph/query.h"

namespace kg {
namespace {

TEST(CrossModuleTest, BuildThenQuery) {
  Rng rng(1);
  synth::UniverseOptions uopt;
  uopt.num_people = 300;
  uopt.num_movies = 400;
  uopt.num_songs = 50;
  const auto universe = synth::EntityUniverse::Generate(uopt, rng);
  synth::SourceOptions wiki, imdb;
  wiki.name = "wikipedia";
  wiki.coverage = 0.5;
  imdb.name = "imdb";
  imdb.coverage = 0.6;
  imdb.schema_dialect = 1;
  core::EntityKgBuilder builder(synth::SourceDomain::kMovies, {});
  builder.IngestAnchor(synth::EmitSource(universe, wiki, rng), rng);
  builder.IngestAndLink(synth::EmitSource(universe, imdb, rng), rng);
  builder.FuseValues();
  ASSERT_GT(builder.kg().num_triples(), 500u);
  const graph::KnowledgeGraph& kg = builder.kg();

  // Query the built graph: every entity with a director also has a
  // title, and the join works.
  graph::QueryEngine engine(kg);
  auto result = engine.Query("?m director ?d . ?m title ?t");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 100u);
  for (const auto& binding : *result) {
    EXPECT_EQ(kg.GetNodeKind(binding.at("m")),
              graph::NodeKind::kEntity);
    EXPECT_EQ(kg.GetNodeKind(binding.at("t")),
              graph::NodeKind::kText);
  }

  // A pointed lookup: pick one movie's title and retrieve its director
  // through the query engine; it must match the KG's direct answer.
  const auto& sample = result->front();
  const std::string title = kg.NodeName(sample.at("t"));
  auto pointed =
      engine.Query("?m title '" + title + "' . ?m director ?d");
  ASSERT_TRUE(pointed.ok());
  ASSERT_FALSE(pointed->empty());
  bool found = false;
  for (const auto& b : *pointed) {
    if (b.at("d") == sample.at("d")) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace kg
