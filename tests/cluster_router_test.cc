// kg::cluster routing semantics on crafted graphs: subject-hash
// partitioning, deterministic scatter-gather merges, the three-round
// top-k decomposition (at most three shard rounds whatever the center's
// degree; each entity scored in full on the shard that owns it, so a
// pair linked both ways counts once and a class hub's members stay on
// their shards), the bounded staleness gate (stale replicas are
// skipped, not served), failover order, breaker probing after a
// revive, and the fan-out stage histograms.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "graph/knowledge_graph.h"
#include "obs/introspect.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_engine.h"
#include "store/versioned_store.h"
#include "store/wal.h"

namespace kg::cluster {
namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Provenance;
using serve::Query;
using serve::QueryResult;
using store::Mutation;

const Provenance kProv{"router_test", 1.0, 0};

// A small graph with the corners the router must reproduce exactly:
// shared neighbors with count ties, a self-loop, text-valued
// attributes, class-typed nodes, and names with tabs/newlines/NULs
// (only *predicates* reserve tabs in the row grammar).
KnowledgeGraph CraftedKg() {
  KnowledgeGraph kg;
  const std::vector<std::string> people = {"ann", "bob", "cat", "dan",
                                           "eve"};
  for (const std::string& p : people) {
    kg.AddTriple(p, "type", "Person", NodeKind::kEntity, NodeKind::kClass,
                 kProv);
  }
  kg.AddTriple("ann", "knows", "bob", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("ann", "knows", "cat", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("bob", "knows", "dan", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("cat", "knows", "dan", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("bob", "knows", "eve", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("cat", "knows", "eve", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("dan", "knows", "dan", NodeKind::kEntity, NodeKind::kEntity,
               kProv);  // Self-loop.
  kg.AddTriple("ann", "name", "Ann A.", NodeKind::kEntity, NodeKind::kText,
               kProv);
  kg.AddTriple("bob", "name", "Bob B.", NodeKind::kEntity, NodeKind::kText,
               kProv);
  kg.AddTriple(std::string("nul\0name", 8), "knows", "tab\there",
               NodeKind::kEntity, NodeKind::kEntity, kProv);
  kg.AddTriple("tab\there", "knows", "line\nbreak", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  return kg;
}

std::vector<Query> CraftedQueries() {
  std::vector<Query> queries;
  for (const char* node : {"ann", "bob", "cat", "dan", "eve", "tab\there",
                           "missing"}) {
    queries.push_back(Query::PointLookup(node, "knows"));
    queries.push_back(Query::Neighborhood(node));
    queries.push_back(Query::TopKRelated(node, 10));
    queries.push_back(Query::TopKRelated(node, 1));
    queries.push_back(Query::TopKRelated(node, 0));
  }
  queries.push_back(Query::AttributeByType("Person", "name"));
  queries.push_back(Query::AttributeByType("Person", "knows"));
  queries.push_back(Query::AttributeByType("NoSuchType", "name"));
  return queries;
}

TEST(ShardOfTest, DeterministicInRangeAndKindTagged) {
  for (size_t shards : {1, 2, 4, 7}) {
    const size_t a = ShardOf("ann", NodeKind::kEntity, shards);
    EXPECT_LT(a, shards);
    EXPECT_EQ(a, ShardOf("ann", NodeKind::kEntity, shards));
  }
  EXPECT_EQ(ShardOf("anything", NodeKind::kText, 1), 0u);
  // The kind participates in the key: "E:x" and "T:x" are different
  // partition keys (they may still collide mod small shard counts).
  bool differs = false;
  for (const char* name : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    if (ShardOf(name, NodeKind::kEntity, 64) !=
        ShardOf(name, NodeKind::kText, 64)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(PartitionTest, DisjointCoveringAndProvenancePreserving) {
  KnowledgeGraph kg = CraftedKg();
  // A second provenance on an existing triple must survive verbatim.
  kg.AddTriple("ann", "knows", "bob", NodeKind::kEntity, NodeKind::kEntity,
               Provenance{"second_source", 0.5, 42});
  const auto parts = PartitionBySubject(kg, 4);
  size_t total = 0;
  for (const auto& part : parts) total += part.AllTriples().size();
  EXPECT_EQ(total, kg.AllTriples().size());
  for (graph::TripleId id : kg.AllTriples()) {
    const graph::Triple& t = kg.triple(id);
    const size_t shard =
        ShardOf(kg.NodeName(t.subject), kg.GetNodeKind(t.subject), 4);
    const auto s = parts[shard].FindNode(kg.NodeName(t.subject),
                                         kg.GetNodeKind(t.subject));
    ASSERT_TRUE(s.ok());
    const auto p = parts[shard].FindPredicate(kg.PredicateName(t.predicate));
    ASSERT_TRUE(p.ok());
    const auto o = parts[shard].FindNode(kg.NodeName(t.object),
                                         kg.GetNodeKind(t.object));
    ASSERT_TRUE(o.ok());
    const graph::TripleId local = parts[shard].FindTriple(*s, *p, *o);
    ASSERT_NE(local, graph::kInvalidTriple);
    EXPECT_EQ(parts[shard].provenance(local).size(),
              kg.provenance(id).size());
  }
}

TEST(MergeShardResultsTest, SortedMergeIsDeterministic) {
  using serve::MergeShardResults;
  EXPECT_TRUE(MergeShardResults({}).empty());
  EXPECT_EQ(MergeShardResults({{"a", "c"}, {}, {"b", "d"}}),
            (QueryResult{"a", "b", "c", "d"}));
  // Equal rows interleave stably (first-range-first == shard-index
  // order); the merged bytes are identical either way.
  EXPECT_EQ(MergeShardResults({{"a", "m"}, {"m", "z"}}),
            (QueryResult{"a", "m", "m", "z"}));
  EXPECT_EQ(MergeShardResults({{"x"}, {"x"}, {"x"}}),
            (QueryResult{"x", "x", "x"}));
}

TEST(RouterTest, CraftedAnswersMatchSingleStoreAtEveryShardCount) {
  const KnowledgeGraph kg = CraftedKg();
  auto reference = store::VersionedKgStore::Open(kg, {});
  ASSERT_TRUE(reference.ok());
  for (size_t shards : {1, 2, 4}) {
    ClusterOptions opts;
    opts.num_shards = shards;
    auto cluster = Cluster::Create(kg, opts);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    for (const Query& q : CraftedQueries()) {
      auto expected = (*reference)->TryExecute(q);
      auto actual = (*cluster)->Execute(q);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok()) << actual.status();
      EXPECT_EQ(*actual, *expected)
          << "shards=" << shards << " key=" << q.CacheKey();
    }
    EXPECT_EQ((*cluster)->router().stats().shed, 0u);
  }
}

TEST(RouterTest, MutationsRouteBySubjectAndStayIdentical) {
  const KnowledgeGraph kg = CraftedKg();
  auto reference = store::VersionedKgStore::Open(kg, {});
  ASSERT_TRUE(reference.ok());
  ClusterOptions opts;
  opts.num_shards = 4;
  auto cluster = Cluster::Create(kg, opts);
  ASSERT_TRUE(cluster.ok());

  std::vector<Mutation> batch;
  batch.push_back(Mutation::Upsert("eve", "knows", "ann", NodeKind::kEntity,
                                   NodeKind::kEntity, kProv));
  batch.push_back(Mutation::Retract("bob", "knows", "dan",
                                    NodeKind::kEntity, NodeKind::kEntity));
  batch.push_back(Mutation::Upsert("fay", "type", "Person",
                                   NodeKind::kEntity, NodeKind::kClass,
                                   kProv));
  batch.push_back(Mutation::Upsert("fay", "knows", "eve", NodeKind::kEntity,
                                   NodeKind::kEntity, kProv));
  ASSERT_TRUE((*reference)->ApplyBatch(batch).ok());
  ASSERT_TRUE((*cluster)->Apply(batch).ok());

  for (const Query& q : CraftedQueries()) {
    auto expected = (*reference)->TryExecute(q);
    auto actual = (*cluster)->Execute(q);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(*actual, *expected);
  }
}

TEST(RouterTest, TopKCostsAtMostThreeShardRounds) {
  constexpr size_t kShards = 4;
  const KnowledgeGraph kg = CraftedKg();
  auto reference = store::VersionedKgStore::Open(kg, {});
  ASSERT_TRUE(reference.ok());
  obs::FixedTraceClock clock;
  obs::Tracer tracer(42, &clock);
  ClusterOptions opts;
  opts.num_shards = kShards;
  opts.tracer = &tracer;
  auto cluster = Cluster::Create(kg, opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  std::vector<Query> queries = CraftedQueries();
  // A class center: every person is a neighbor.
  queries.push_back(Query::TopKRelated("Person", 10, NodeKind::kClass));
  for (const Query& q : queries) {
    auto actual = (*cluster)->Execute(q);
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(*actual, *(*reference)->TryExecute(q)) << q.CacheKey();
  }
  cluster->reset();  // Joins every member before exporting spans.
#ifndef KG_OBS_NOOP
  // Round one asks each shard for the center's neighborhood, round two
  // each shard once for its ring nodes' out-hops, round three each shard
  // once for its k best: constant in the center's degree.
  const auto doc = obs::ParseJson(tracer.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  size_t topk_roots = 0;
  for (const obs::JsonValue& root : doc->Find("spans")->array) {
    if (root.Find("name")->string_value != "route.topk_related") continue;
    ++topk_roots;
    size_t shard_calls = 0;
    if (const obs::JsonValue* children = root.Find("children")) {
      for (const obs::JsonValue& child : children->array) {
        if (child.Find("name")->string_value.rfind("shard@", 0) == 0) {
          ++shard_calls;
        }
      }
    }
    EXPECT_LE(shard_calls, 3 * kShards) << "top-k root " << topk_roots;
  }
  EXPECT_EQ(topk_roots, 22u);  // 7 centers x 3 budgets + the class center.
#endif
}

/// The first name "<prefix><i>" whose entity lands on a shard other than
/// `not_shard` (of `shards`).
std::string EntityOffShard(const std::string& prefix, size_t not_shard,
                           size_t shards) {
  for (int i = 0;; ++i) {
    std::string name = prefix + std::to_string(i);
    if (ShardOf(name, NodeKind::kEntity, shards) != not_shard) return name;
  }
}

TEST(RouterTest, PairLinkedBothWaysAcrossShardsCountsOnce) {
  // Ring node n and entity m hold both n→m and m→n on different shards:
  // n→m lives on n's shard and m→n on m's. The owner rule scores m only
  // on m's shard, where both meet, so m counts once for n. Scoring the
  // out-hop pair on n's shard and summing per-shard counts would say 2.
  constexpr size_t kShards = 4;
  const std::string n = "ring0";
  const size_t n_shard = ShardOf(n, NodeKind::kEntity, kShards);
  const std::string m = EntityOffShard("twoway", n_shard, kShards);
  ASSERT_NE(ShardOf(m, NodeKind::kEntity, kShards), n_shard);
  KnowledgeGraph kg;
  kg.AddTriple("center", "knows", n, NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple(n, "knows", m, NodeKind::kEntity, NodeKind::kEntity, kProv);
  kg.AddTriple(m, "knows", n, NodeKind::kEntity, NodeKind::kEntity, kProv);
  // One-way partners of n on either side, tied with m at one path each.
  kg.AddTriple(n, "knows", "out_only", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("in_only", "knows", n, NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  auto reference = store::VersionedKgStore::Open(kg, {});
  ASSERT_TRUE(reference.ok());
  ClusterOptions opts;
  opts.num_shards = kShards;
  auto cluster = Cluster::Create(kg, opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  for (const size_t k : {1, 2, 10}) {
    const Query q = Query::TopKRelated("center", k);
    auto expected = (*reference)->TryExecute(q);
    auto actual = (*cluster)->Execute(q);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(*actual, *expected) << "k=" << k;
  }
  auto all = (*cluster)->Execute(Query::TopKRelated("center", 10));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (QueryResult{"E:in_only\t1", "E:out_only\t1",
                               "E:" + m + "\t1"}));
}

TEST(RouterTest, MemberScoresAClassRingWithOnlyItsKBest) {
  // A class hub as the only ring node: its 320 members point at it, so
  // every member counts one path, and each shard must ship its k best,
  // not its share of the membership.
  constexpr size_t kShards = 4;
  constexpr size_t kMembers = 320;
  constexpr size_t kK = 5;
  KnowledgeGraph kg;
  kg.AddTriple("hub", "type", "Big", NodeKind::kEntity, NodeKind::kClass,
               kProv);
  std::vector<std::vector<std::string>> owned(kShards);
  for (size_t i = 0; i < kMembers; ++i) {
    const std::string name = "member" + std::to_string(1000 + i);
    kg.AddTriple(name, "type", "Big", NodeKind::kEntity, NodeKind::kClass,
                 kProv);
    owned[ShardOf(name, NodeKind::kEntity, kShards)].push_back(name);
  }
  ClusterOptions opts;
  opts.num_shards = kShards;
  auto cluster = Cluster::Create(kg, opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const serve::NodeKey center{NodeKind::kEntity, "hub"};
  const std::vector<serve::NodeKey> ring = {{NodeKind::kClass, "Big"}};
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_GT(owned[s].size(), kK) << "shard " << s;
    auto scores = (*cluster)->primary(s).RingScoresTraced(center, ring, {},
                                                          kK, 0);
    ASSERT_TRUE(scores.ok()) << scores.status();
    // Names were added in order, so each shard's k best are its first k.
    std::vector<serve::ScoredEntity> expected;
    for (size_t i = 0; i < kK; ++i) {
      expected.push_back(serve::ScoredEntity{owned[s][i], 1});
    }
    EXPECT_EQ(scores->best, expected) << "shard " << s;
  }
  auto routed = (*cluster)->Execute(Query::TopKRelated("hub", kK));
  ASSERT_TRUE(routed.ok()) << routed.status();
  auto reference = store::VersionedKgStore::Open(kg, {});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*routed,
            *(*reference)->TryExecute(Query::TopKRelated("hub", kK)));
  EXPECT_EQ(routed->size(), kK);
}

TEST(RouterTest, StaleReplicaIsSkippedThenShedWhenNoOneCanServe) {
  ClusterOptions opts;
  opts.num_shards = 1;
  opts.replicas_per_shard = 1;
  opts.heartbeat_interval_ms = 2;
  opts.receiver.dial_retry_ms = 1;
  opts.receiver.max_dial_attempts = 5;
  auto cluster = Cluster::Create(CraftedKg(), opts);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->WaitForCatchUp(5000));

  // The replica misses a committed write, then the primary dies: a
  // live-but-stale replica must NOT serve under staleness 0 — the
  // query is shed with kUnavailable instead of a silently stale
  // answer.
  (*cluster)->KillReplica(0, 0);
  std::vector<Mutation> batch = {Mutation::Upsert(
      "ann", "knows", "eve", NodeKind::kEntity, NodeKind::kEntity, kProv)};
  ASSERT_TRUE((*cluster)->Apply(batch).ok());
  (*cluster)->KillPrimary(0);
  (*cluster)->ReviveReplica(0, 0);  // Alive, but cannot catch up.

  const Query q = Query::PointLookup("ann", "knows");
  auto shed = (*cluster)->Execute(q);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_GT((*cluster)->router().stats().shed, 0u);
  EXPECT_GT((*cluster)->router().stats().stale_rejects, 0u);

  // Primary back: the write ships, the replica catches up, and the
  // whole group serves again.
  ASSERT_TRUE((*cluster)->RevivePrimary(0).ok());
  ASSERT_TRUE((*cluster)->WaitForCatchUp(5000));
  auto served = (*cluster)->Execute(q);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, (QueryResult{"E:bob", "E:cat", "E:eve"}));
}

TEST(RouterTest, BreakerOpensOnDeadPrimaryAndProbesItBack) {
  ClusterOptions opts;
  opts.num_shards = 1;
  opts.replicas_per_shard = 1;
  opts.heartbeat_interval_ms = 2;
  opts.breaker_failure_threshold = 2;
  opts.breaker_probe_interval = 3;
  auto cluster = Cluster::Create(CraftedKg(), opts);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->WaitForCatchUp(5000));
  (*cluster)->KillPrimary(0);

  const Query q = Query::PointLookup("ann", "knows");
  // Every query fails over to the caught-up replica; after the breaker
  // threshold the primary is not even dialed anymore.
  for (int i = 0; i < 8; ++i) {
    auto r = (*cluster)->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  // A top-k is three shard rounds whatever the center's degree (ann has
  // four neighbors): each round fails over once, and the answer still
  // equals the single store's.
  auto reference = store::VersionedKgStore::Open(CraftedKg(), {});
  ASSERT_TRUE(reference.ok());
  const Query topk = Query::TopKRelated("ann", 10);
  const uint64_t before_topk = (*cluster)->router().stats().failovers;
  EXPECT_GE(before_topk, 8u);  // Every lookup above failed over.
  auto related = (*cluster)->Execute(topk);
  ASSERT_TRUE(related.ok()) << related.status();
  EXPECT_EQ(*related, *(*reference)->TryExecute(topk));
  EXPECT_EQ((*cluster)->router().stats().failovers, before_topk + 3);
  const auto mid = (*cluster)->router().stats();
  EXPECT_GE(mid.failovers, 8u);

  // After a revive, open-breaker probes rediscover the primary within
  // breaker_probe_interval selections and traffic returns to it.
  ASSERT_TRUE((*cluster)->RevivePrimary(0).ok());
  for (int i = 0; i < 8; ++i) {
    auto r = (*cluster)->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const auto settled = (*cluster)->router().stats();
  EXPECT_GT(settled.probes, 0u);
  EXPECT_LT(settled.failovers, mid.failovers + 8);
  // Traffic has returned to the primary: one more query, zero new
  // failovers.
  auto r = (*cluster)->Execute(q);
  ASSERT_TRUE(r.ok()) << r.status();
  const auto after = (*cluster)->router().stats();
  EXPECT_EQ(after.failovers, settled.failovers);
  EXPECT_EQ(after.shed, 0u);
}

TEST(RouterTest, RegistryAloneTimesFanoutOncePerRoutedScan) {
  // A registry is all the fan-out stage needs: each routed
  // neighbourhood, attribute or top-k query observes its shard rounds
  // once, and a point lookup (one shard, nothing fanned out) never does.
  obs::MetricsRegistry registry;
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.registry = &registry;
  auto cluster = Cluster::Create(CraftedKg(), opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  uint64_t routed[serve::kNumQueryKinds] = {};
  for (const Query& q : CraftedQueries()) {
    auto actual = (*cluster)->Execute(q);
    ASSERT_TRUE(actual.ok()) << actual.status();
    ++routed[static_cast<size_t>(q.kind)];
  }
#ifndef KG_OBS_NOOP
  for (size_t k = 0; k < serve::kNumQueryKinds; ++k) {
    const auto kind = static_cast<serve::QueryKind>(k);
    ASSERT_GT(routed[k], 0u);
    EXPECT_EQ(obs::StageHistogram(registry, obs::Stage::kFanout,
                                  serve::QueryKindName(kind))
                  .Count(),
              kind == serve::QueryKind::kPointLookup ? 0u : routed[k])
        << serve::QueryKindName(kind);
  }
#endif
}

}  // namespace
}  // namespace kg::cluster
