#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace kg::serve {
namespace {

using graph::NodeKind;
using graph::Provenance;

const Provenance kProv{"test", 1.0, 0};

// A movie-shaped micro-world: two typed movies, one typed person, one
// untyped movie, text attributes, and a shared director for top-k.
graph::KnowledgeGraph SampleKg() {
  graph::KnowledgeGraph kg;
  kg.AddTriple("m1", "type", "Movie", NodeKind::kEntity, NodeKind::kClass,
               kProv);
  kg.AddTriple("m2", "type", "Movie", NodeKind::kEntity, NodeKind::kClass,
               kProv);
  kg.AddTriple("ada", "type", "Person", NodeKind::kEntity,
               NodeKind::kClass, kProv);
  kg.AddTriple("m1", "title", "The Harbor", NodeKind::kEntity,
               NodeKind::kText, kProv);
  kg.AddTriple("m2", "title", "Night Train", NodeKind::kEntity,
               NodeKind::kText, kProv);
  kg.AddTriple("m3", "title", "Untyped", NodeKind::kEntity,
               NodeKind::kText, kProv);
  kg.AddTriple("m1", "directed_by", "ada", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("m2", "directed_by", "ada", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("bo", "acted_in", "m1", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("bo", "acted_in", "m2", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  return kg;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : kg_(SampleKg()), snap_(KgSnapshot::Compile(kg_)) {}

  graph::KnowledgeGraph kg_;
  KgSnapshot snap_;
};

TEST_F(QueryEngineTest, PointLookupReturnsSortedObjects) {
  const QueryEngine engine(snap_);
  EXPECT_EQ(engine.Execute(Query::PointLookup("m1", "title")),
            (QueryResult{"T:The Harbor"}));
  EXPECT_EQ(engine.Execute(Query::PointLookup("m1", "directed_by")),
            (QueryResult{"E:ada"}));
  // Unknown node, predicate, or wrong kind: empty, not an error.
  EXPECT_TRUE(engine.Execute(Query::PointLookup("nope", "title")).empty());
  EXPECT_TRUE(engine.Execute(Query::PointLookup("m1", "nope")).empty());
  EXPECT_TRUE(engine
                  .Execute(Query::PointLookup("m1", "title",
                                              NodeKind::kText))
                  .empty());
}

TEST_F(QueryEngineTest, NeighborhoodCoversBothDirections) {
  const QueryEngine engine(snap_);
  const QueryResult rows = engine.Execute(Query::Neighborhood("m1"));
  const QueryResult expected{
      "in\tacted_in\tE:bo",
      "out\tdirected_by\tE:ada",
      "out\ttitle\tT:The Harbor",
      "out\ttype\tC:Movie",
  };
  EXPECT_EQ(rows, expected);
}

TEST_F(QueryEngineTest, AttributeByTypeFiltersByClass) {
  const QueryEngine engine(snap_);
  const QueryResult rows =
      engine.Execute(Query::AttributeByType("Movie", "title"));
  // m3 has a title but no type assertion, so it is filtered out.
  const QueryResult expected{
      "E:m1\tT:The Harbor",
      "E:m2\tT:Night Train",
  };
  EXPECT_EQ(rows, expected);
  EXPECT_TRUE(
      engine.Execute(Query::AttributeByType("Nope", "title")).empty());
}

TEST_F(QueryEngineTest, TopKRelatedRanksBySharedNeighbors) {
  const QueryEngine engine(snap_);
  // m1's neighbors: Movie, "The Harbor", ada, bo. m2 shares ada, bo and
  // Movie (3 paths); no other entity shares more than one.
  const QueryResult rows = engine.Execute(Query::TopKRelated("m1", 2));
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0], "E:m2\t3");
  EXPECT_LE(rows.size(), 2u);
  // k truncates.
  EXPECT_EQ(engine.Execute(Query::TopKRelated("m1", 1)).size(), 1u);
  EXPECT_TRUE(engine.Execute(Query::TopKRelated("m1", 0)).empty());
  EXPECT_TRUE(engine.Execute(Query::TopKRelated("ghost", 5)).empty());
}

TEST_F(QueryEngineTest, CacheIsTransparentAndCounts) {
  ServeOptions options;
  options.cache_capacity = 64;
  const QueryEngine cached(snap_, options);
  const QueryEngine uncached(snap_);
  const std::vector<Query> queries = {
      Query::PointLookup("m1", "title"),
      Query::Neighborhood("m1"),
      Query::AttributeByType("Movie", "title"),
      Query::TopKRelated("m1", 4),
  };
  for (const Query& q : queries) {
    const QueryResult cold = cached.Execute(q);
    const QueryResult warm = cached.Execute(q);
    EXPECT_EQ(cold, uncached.Execute(q));
    EXPECT_EQ(warm, cold);
  }
  ASSERT_NE(cached.cache(), nullptr);
  const auto counters = cached.cache()->counters();
  EXPECT_EQ(counters.misses, queries.size());
  EXPECT_EQ(counters.hits, queries.size());
  EXPECT_EQ(uncached.cache(), nullptr);
}

TEST_F(QueryEngineTest, CacheKeyIsInjectiveAcrossFieldBoundaries) {
  // Same concatenated bytes, different field split.
  const Query a = Query::PointLookup("ab", "c");
  const Query b = Query::PointLookup("a", "bc");
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  // Same fields, different kind.
  EXPECT_NE(Query::Neighborhood("m1").CacheKey(),
            Query::TopKRelated("m1", 10).CacheKey());
  EXPECT_NE(Query::PointLookup("m1", "title").CacheKey(),
            Query::PointLookup("m1", "title", NodeKind::kText).CacheKey());
}

TEST_F(QueryEngineTest, BatchExecuteIsBitIdenticalAcrossThreadCounts) {
  std::vector<Query> batch;
  for (int rep = 0; rep < 10; ++rep) {
    batch.push_back(Query::PointLookup("m1", "title"));
    batch.push_back(Query::PointLookup("m2", "directed_by"));
    batch.push_back(Query::Neighborhood("ada"));
    batch.push_back(Query::AttributeByType("Movie", "title"));
    batch.push_back(Query::TopKRelated("bo", 5));
    batch.push_back(Query::PointLookup("ghost", "title"));
  }
  const QueryEngine serial(snap_);
  std::vector<QueryResult> reference;
  for (const Query& q : batch) reference.push_back(serial.Execute(q));

  for (size_t threads : {1u, 2u, 8u}) {
    for (size_t cache_capacity : {0u, 16u}) {
      ServeOptions options;
      options.exec = ExecPolicy::WithThreads(threads);
      options.cache_capacity = cache_capacity;
      const QueryEngine engine(snap_, options);
      EXPECT_EQ(engine.BatchExecute(batch), reference)
          << "threads=" << threads << " cache=" << cache_capacity;
    }
  }
}

TEST_F(QueryEngineTest, TryExecuteRefusesNewerSchemaSnapshot) {
  // Regression: a snapshot stamped with a newer schema generation than
  // this build must be refused with kUnavailable — the retriable
  // "another replica may serve you" signal — never a crash and never a
  // plausible-but-wrong empty success.
  KgSnapshot newer = KgSnapshot::Compile(kg_);
  newer.OverrideSchemaVersion(kSnapshotSchemaVersion + 1);
  const QueryEngine engine(newer);
  const auto result = engine.TryExecute(Query::PointLookup("m1", "title"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetriable(result.status().code()));

  // Same generation (and older stamps, if they ever exist) serve
  // normally, identically to Execute.
  const QueryEngine current(snap_);
  const auto ok = current.TryExecute(Query::PointLookup("m1", "title"));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, current.Execute(Query::PointLookup("m1", "title")));
}

TEST_F(QueryEngineTest, MetricsRecordPerQueryClass) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.registry = &registry;
  options.time_queries = true;
  const QueryEngine engine(snap_, options);
  engine.Execute(Query::PointLookup("m1", "title"));
  engine.Execute(Query::PointLookup("m2", "title"));
  engine.Execute(Query::TopKRelated("m1", 3));
  const auto latency = [&](const char* kind) -> const obs::Histogram& {
    return registry.GetHistogram(std::string("serve.latency_us.") + kind,
                                 obs::LatencyBucketsUs());
  };
  EXPECT_EQ(latency("point_lookup").Count(), 2u);
  EXPECT_EQ(latency("neighborhood").Count(), 0u);
  EXPECT_EQ(latency("attribute_by_type").Count(), 0u);
  EXPECT_EQ(latency("topk_related").Count(), 1u);
  EXPECT_EQ(registry.GetCounter("serve.queries.point_lookup").Value(), 2u);
  EXPECT_EQ(registry.GetCounter("serve.queries.topk_related").Value(), 1u);
}

}  // namespace
}  // namespace kg::serve
