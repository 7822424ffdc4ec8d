// The acceptance gate for the observability layer: metrics exposition
// and trace JSON must be byte-identical across 1/2/8-thread runs of
// the same seeded workload. Runs under TSan in CI (obs label), so it
// also exercises the sharded counters and the tracer mutex under real
// concurrency.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "common/rng.h"
#include "core/textrich_kg_pipeline.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "synth/behavior_generator.h"
#include "synth/catalog_generator.h"
#include "synth/entity_universe.h"

namespace kg::obs {
namespace {

// Instrumented batch replay over a small entity snapshot; returns the
// registry exposition. The workload is fixed; only the thread count
// varies between calls.
std::string MeteredServeExposition(size_t threads) {
  synth::UniverseOptions uopt;
  uopt.num_people = 150;
  uopt.num_movies = 250;
  uopt.num_songs = 20;
  Rng rng(42);
  const auto universe = synth::EntityUniverse::Generate(uopt, rng);
  const auto snap =
      serve::KgSnapshot::Compile(universe.ToKnowledgeGraph());

  std::vector<serve::Query> workload;
  const ZipfDistribution zipf(universe.people().size(), 1.05);
  const std::vector<std::string> preds = {"name", "birth_year",
                                          "nationality"};
  for (size_t i = 0; i < 4000; ++i) {
    workload.push_back(serve::Query::PointLookup(
        synth::EntityUniverse::PersonNodeName(
            universe.people()[zipf.Sample(rng)].id),
        preds[rng.UniformIndex(preds.size())]));
  }

  MetricsRegistry registry;
  serve::ServeOptions options;
  options.exec = ExecPolicy::WithThreads(threads);
  options.registry = &registry;
  const serve::QueryEngine engine(snap, options);
  const auto results = engine.BatchExecute(workload);
  EXPECT_EQ(results.size(), workload.size());
  return registry.ToJson();
}

TEST(ObsDeterminismTest, ServeMetricsExpositionIdenticalAt1_2_8Threads) {
  const std::string json_1 = MeteredServeExposition(1);
  EXPECT_NE(json_1.find("serve.queries.point_lookup"), std::string::npos);
  EXPECT_EQ(MeteredServeExposition(2), json_1);
  EXPECT_EQ(MeteredServeExposition(8), json_1);
}

// A traced text-rich build under a FixedTraceClock: the exported trace
// is a pure function of (seed, structure) because the sharded
// extraction loop names its chunk spans by chunk begin index and chunk
// geometry never depends on the thread count.
struct TracedBuild {
  std::string trace_json;
  uint64_t kg_fingerprint = 0;
};

TracedBuild TracedTextRichBuild(size_t threads) {
  Rng rng(42);
  synth::CatalogOptions copt;
  copt.num_types = 4;
  copt.num_products = 80;
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);
  synth::BehaviorOptions bopt;
  bopt.num_searches = 400;
  const auto behavior = synth::GenerateBehavior(catalog, bopt, rng);

  FixedTraceClock clock;
  Tracer tracer(42, &clock);
  core::TextRichBuildOptions opt;
  opt.train_fraction = 0.2;
  opt.exec = ExecPolicy::WithThreads(threads);
  opt.tracer = &tracer;
  Rng build_rng(42);
  const auto build = core::BuildTextRichKg(catalog, behavior, opt, build_rng);
  TracedBuild out;
  out.trace_json = tracer.ToJson();
  out.kg_fingerprint = graph::TripleSetFingerprint(build.kg);
  return out;
}

TEST(ObsDeterminismTest, TextRichTraceIdenticalAt1_2_8Threads) {
  const TracedBuild serial = TracedTextRichBuild(1);
#ifndef KG_OBS_NOOP
  EXPECT_NE(serial.trace_json.find("textrich.build"), std::string::npos);
  EXPECT_NE(serial.trace_json.find("chunk@"), std::string::npos);
#endif
  for (size_t threads : {2u, 8u}) {
    const TracedBuild parallel = TracedTextRichBuild(threads);
    EXPECT_EQ(parallel.trace_json, serial.trace_json)
        << threads << " threads";
    EXPECT_EQ(parallel.kg_fingerprint, serial.kg_fingerprint)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace kg::obs
