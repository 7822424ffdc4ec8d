// Property battery for the scale-world generator + binary snapshot
// pipeline. The load-bearing equivalences:
//   - streaming build == batch Compile (same fingerprint, same answers);
//   - binary round-trip (memory and mmap file) preserves the fingerprint
//     and serves byte-identical answers to a batch Compile of the same
//     world, across all four query classes, cache on/off, 1/2/8 threads.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_policy.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_binary.h"
#include "synth/scale_world.h"

namespace kg::serve {
namespace {

synth::ScaleWorldSpec SmallSpec(uint64_t seed, uint64_t entities) {
  synth::ScaleWorldSpec spec;
  spec.seed = seed;
  spec.num_entities = entities;
  spec.num_categories = 7;
  spec.num_brands = 11;
  spec.related_per_entity = 3;
  return spec;
}

std::vector<Query> Workload(const synth::ScaleWorldSpec& spec, size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(synth::ScaleSampleQuery(spec, i));
  }
  return queries;
}

TEST(ScaleWorldTest, StreamingBuildMatchesBatchCompile) {
  for (const uint64_t seed : {1ULL, 42ULL, 977ULL}) {
    const synth::ScaleWorldSpec spec = SmallSpec(seed, 300);
    const KgSnapshot streamed = synth::BuildScaleSnapshot(spec);
    const KgSnapshot compiled =
        KgSnapshot::Compile(synth::BuildScaleKnowledgeGraph(spec));
    EXPECT_EQ(streamed.Fingerprint(), compiled.Fingerprint()) << seed;
    EXPECT_EQ(streamed.num_nodes(), compiled.num_nodes());
    EXPECT_EQ(streamed.num_triples(), compiled.num_triples());
    EXPECT_EQ(RecomputeFingerprint(streamed), streamed.Fingerprint());
    // Same bytes end to end: the serialized forms must be identical too.
    EXPECT_EQ(SerializeSnapshotBinary(streamed),
              SerializeSnapshotBinary(compiled));
  }
}

TEST(ScaleWorldTest, SpecAccountingMatchesBuiltWorld) {
  const synth::ScaleWorldSpec spec = SmallSpec(5, 250);
  const KgSnapshot snap = synth::BuildScaleSnapshot(spec);
  EXPECT_EQ(snap.num_nodes(), spec.TotalNodes());
  EXPECT_EQ(snap.num_triples(), spec.TotalTriples());
}

TEST(ScaleWorldTest, TripleStreamReplaysIdentically) {
  const synth::ScaleWorldSpec spec = SmallSpec(9, 120);
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> first, second;
  synth::ForEachScaleTriple(spec, [&](uint32_t s, uint32_t p, uint32_t o) {
    first.emplace_back(s, p, o);
  });
  synth::ForEachScaleTriple(spec, [&](uint32_t s, uint32_t p, uint32_t o) {
    second.emplace_back(s, p, o);
  });
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
}

TEST(ScalePropertyTest, BinaryAnswersMatchCompiledAnswersEverywhere) {
  const synth::ScaleWorldSpec spec = SmallSpec(42, 400);
  const KgSnapshot built = synth::BuildScaleSnapshot(spec);

  // Representation A: binary round-trip through a file, mmap-loaded.
  const std::string path = ::testing::TempDir() + "/scale_prop.snap";
  ASSERT_TRUE(SaveSnapshotBinary(built, path).ok());
  auto binary = LoadSnapshotBinary(path);
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->Fingerprint(), built.Fingerprint());

  // Representation B: a batch Compile of the materialized world graph
  // (independent of the streaming builder and the file format).
  const KgSnapshot compiled =
      KgSnapshot::Compile(synth::BuildScaleKnowledgeGraph(spec));
  EXPECT_EQ(compiled.Fingerprint(), built.Fingerprint());

  // A workload hitting all four query classes (ScaleSampleQuery cycles
  // point lookups, neighborhoods, attribute-by-type, top-k).
  const std::vector<Query> workload = Workload(spec, 400);
  bool saw_kind[kNumQueryKinds] = {};
  for (const Query& q : workload) saw_kind[static_cast<size_t>(q.kind)] = true;
  for (size_t k = 0; k < kNumQueryKinds; ++k) {
    EXPECT_TRUE(saw_kind[k]) << "workload misses query class " << k;
  }

  for (const size_t cache_capacity : {size_t{0}, size_t{64}}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ServeOptions options;
      options.cache_capacity = cache_capacity;
      options.exec = ExecPolicy::WithThreads(threads);
      const QueryEngine binary_engine(*binary, options);
      const QueryEngine compiled_engine(compiled, options);
      const auto binary_answers = binary_engine.BatchExecute(workload);
      const auto compiled_answers = compiled_engine.BatchExecute(workload);
      ASSERT_EQ(binary_answers.size(), workload.size());
      EXPECT_EQ(binary_answers, compiled_answers)
          << "cache=" << cache_capacity << " threads=" << threads;
      // The cached/parallel path must also match the uncached serial
      // reference on the same snapshot.
      for (size_t i = 0; i < workload.size(); i += 37) {
        EXPECT_EQ(binary_answers[i], binary_engine.ExecuteUncached(workload[i]))
            << "cache=" << cache_capacity << " threads=" << threads
            << " query=" << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ScalePropertyTest, MmapLoadedFingerprintMatchesRecompute) {
  const synth::ScaleWorldSpec spec = SmallSpec(7, 256);
  const KgSnapshot built = synth::BuildScaleSnapshot(spec);
  const std::string path = ::testing::TempDir() + "/scale_fp.snap";
  ASSERT_TRUE(SaveSnapshotBinary(built, path).ok());
  for (const BinaryVerify verify :
       {BinaryVerify::kHeader, BinaryVerify::kChecksum}) {
    auto loaded = LoadSnapshotBinary(path, verify);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // Stored fingerprint survives the file, and recomputing it from the
    // mmap'd postings reproduces it — the content really round-tripped.
    EXPECT_EQ(loaded->Fingerprint(), built.Fingerprint());
    EXPECT_EQ(RecomputeFingerprint(*loaded), built.Fingerprint());
  }
  std::remove(path.c_str());
}

/// Whether `spec` is inside scale_world.h's Compile contract: every brand
/// and every category drawn by some entity, and related edges on.
bool InsideCompileContract(const synth::ScaleWorldSpec& spec) {
  if (spec.related_per_entity == 0) return false;
  std::set<uint32_t> drawn;
  synth::ForEachScaleTriple(spec, [&](uint32_t, uint32_t, uint32_t o) {
    if (o >= spec.num_entities) drawn.insert(o);
  });
  return drawn.size() == spec.EffectiveBrands() + spec.num_categories;
}

TEST(ScalePropertyTest, WorldsWithDegenerateShapesRoundTrip) {
  // Corner worlds: single entity (most brands and categories undrawn) and
  // no related edges lie outside the Compile contract; one category and
  // one brand lie inside it.
  std::vector<std::pair<synth::ScaleWorldSpec, bool>> cases;
  cases.emplace_back(SmallSpec(3, 1), false);
  cases.emplace_back(SmallSpec(4, 50), false);
  cases.back().first.related_per_entity = 0;
  cases.emplace_back(SmallSpec(6, 17), true);
  cases.back().first.num_categories = 1;
  cases.back().first.num_brands = 1;
  for (const auto& [spec, inside] : cases) {
    ASSERT_EQ(InsideCompileContract(spec), inside) << spec.seed;
    const KgSnapshot built = synth::BuildScaleSnapshot(spec);
    auto back = DeserializeSnapshotBinary(SerializeSnapshotBinary(built));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->Fingerprint(), built.Fingerprint());
    // Recomputed from the decoded postings, not copied from the header.
    EXPECT_EQ(RecomputeFingerprint(*back), built.Fingerprint());
    // Compile of the materialized graph drops vocabulary no triple uses,
    // so it is a reference only inside the contract.
    const KgSnapshot compiled =
        KgSnapshot::Compile(synth::BuildScaleKnowledgeGraph(spec));
    EXPECT_EQ(compiled.Fingerprint() == built.Fingerprint(), inside)
        << spec.seed;
  }
}

}  // namespace
}  // namespace kg::serve
