// Property harness for the sharded serving cluster: for 100 seeded
// random (KG, mutation stream, workload) worlds, every answer through
// the scatter-gather router must be byte-identical to a single
// VersionedKgStore that applied the same mutations — at 1/2/4 shards
// times 0/1/2 replicas, with seeded replica kills and revives
// mid-workload, and (where replicas exist) with every primary killed
// after catch-up so the answers provably come from shipped state.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/query_engine.h"
#include "store/versioned_store.h"
#include "store/wal.h"
#include "synth/entity_universe.h"

namespace kg::cluster {
namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Provenance;
using graph::TripleId;
using serve::Query;
using serve::QueryResult;
using store::Mutation;
using store::MutationOp;

constexpr int kNumWorlds = 100;
constexpr int kPhases = 3;
constexpr int kMutationsPerPhase = 8;
constexpr int kQueriesPerPhase = 6;

struct World {
  KnowledgeGraph kg;
  std::vector<std::string> names;
  std::vector<std::string> predicates;
};

World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  synth::UniverseOptions options;
  options.num_people = static_cast<size_t>(rng.UniformInt(8, 18));
  options.num_movies = static_cast<size_t>(rng.UniformInt(6, 14));
  options.num_songs = static_cast<size_t>(rng.UniformInt(3, 8));
  const auto universe = synth::EntityUniverse::Generate(options, rng);

  World world;
  world.kg = universe.ToKnowledgeGraph();
  const Provenance prov{"cluster_prop", 1.0, 0};
  for (const auto& p : universe.people()) {
    const std::string name = synth::EntityUniverse::PersonNodeName(p.id);
    world.kg.AddTriple(name, "type", "Person", NodeKind::kEntity,
                       NodeKind::kClass, prov);
    world.names.push_back(name);
  }
  for (const auto& m : universe.movies()) {
    const std::string name = synth::EntityUniverse::MovieNodeName(m.id);
    world.kg.AddTriple(name, "type", "Movie", NodeKind::kEntity,
                       NodeKind::kClass, prov);
    world.names.push_back(name);
  }
  for (const auto& s : universe.songs()) {
    world.names.push_back(synth::EntityUniverse::SongNodeName(s.id));
  }
  // Hostile names: the row grammar only reserves tabs in *predicates*,
  // so node names with tabs/newlines/NULs must shard and merge intact.
  const std::vector<std::string> hostile = {
      std::string("nul\0inside", 10), "tab\there", "line\nbreak",
      "h\xc3\xa9llo w\xc3\xb6rld", ""};
  for (size_t i = 0; i < hostile.size(); ++i) {
    world.kg.AddTriple(hostile[i], "hostile_edge",
                       hostile[(i + 1) % hostile.size()], NodeKind::kEntity,
                       NodeKind::kEntity, prov);
    world.names.push_back(hostile[i]);
  }
  // Names no base triple uses: nodes only the overlay can create.
  for (int i = 0; i < 3; ++i) {
    world.names.push_back("fresh:" + std::to_string(i));
  }
  world.predicates = {"knows",       "type",         "name",    "genre",
                      "directed_by", "acted_in",     "mentors",
                      "performed_by", "hostile_edge", "no_such_predicate"};
  return world;
}

NodeKind RandomKind(Rng& rng) {
  if (rng.Bernoulli(0.7)) return NodeKind::kEntity;
  return rng.Bernoulli(0.5) ? NodeKind::kText : NodeKind::kClass;
}

/// A `type` edge into a queried class, so the overlay changes what
/// attribute-by-type reads as the class's members. The pool holds
/// members, base nodes outside the class (songs, the other class, the
/// hostile nodes) and names only the overlay creates; upserts add
/// members, retracts remove base and overlay-added ones.
Mutation MembershipMutation(const World& world, Rng& rng) {
  static const std::vector<std::string> kClasses = {"Person", "Movie"};
  const std::string& node =
      world.names[rng.UniformIndex(world.names.size())];
  const std::string& cls = kClasses[rng.UniformIndex(kClasses.size())];
  if (rng.Bernoulli(0.6)) {
    return Mutation::Upsert(node, "type", cls, NodeKind::kEntity,
                            NodeKind::kClass, Provenance{"feed_a", 1.0, 0});
  }
  return Mutation::Retract(node, "type", cls, NodeKind::kEntity,
                           NodeKind::kClass);
}

Mutation RandomMutation(const World& world, const KnowledgeGraph& oracle,
                        Rng& rng) {
  if (rng.Bernoulli(0.2)) return MembershipMutation(world, rng);
  const double roll = rng.UniformDouble();
  if (roll < 0.4) {
    const std::vector<TripleId> live = oracle.AllTriples();
    if (!live.empty() && rng.Bernoulli(0.8)) {
      const graph::Triple& t =
          oracle.triple(live[rng.UniformIndex(live.size())]);
      return Mutation::Retract(
          oracle.NodeName(t.subject), oracle.PredicateName(t.predicate),
          oracle.NodeName(t.object), oracle.GetNodeKind(t.subject),
          oracle.GetNodeKind(t.object));
    }
    return Mutation::Retract(
        world.names[rng.UniformIndex(world.names.size())],
        world.predicates[rng.UniformIndex(world.predicates.size())],
        world.names[rng.UniformIndex(world.names.size())], RandomKind(rng),
        RandomKind(rng));
  }
  Provenance prov;
  prov.source = rng.Bernoulli(0.5) ? "feed_a" : "feed_b";
  prov.confidence = rng.UniformDouble();
  prov.timestamp = rng.UniformInt(0, 1000);
  return Mutation::Upsert(
      world.names[rng.UniformIndex(world.names.size())],
      world.predicates[rng.UniformIndex(world.predicates.size())],
      world.names[rng.UniformIndex(world.names.size())], RandomKind(rng),
      RandomKind(rng), std::move(prov));
}

void ApplyToKg(KnowledgeGraph* kg, const Mutation& m) {
  if (m.op == MutationOp::kUpsert) {
    kg->AddTriple(m.subject, m.predicate, m.object, m.subject_kind,
                  m.object_kind, m.prov);
    return;
  }
  const auto s = kg->FindNode(m.subject, m.subject_kind);
  const auto p = kg->FindPredicate(m.predicate);
  const auto o = kg->FindNode(m.object, m.object_kind);
  if (!s.ok() || !p.ok() || !o.ok()) return;
  const TripleId id = kg->FindTriple(*s, *p, *o);
  if (id != graph::kInvalidTriple) kg->RemoveTriple(id);
}

Query RandomQuery(const World& world, Rng& rng) {
  static const std::vector<std::string> kTypes = {"Person", "Movie",
                                                  "NoSuchType"};
  const std::string& node =
      world.names[rng.UniformIndex(world.names.size())];
  const std::string& pred =
      world.predicates[rng.UniformIndex(world.predicates.size())];
  const double roll = rng.UniformDouble();
  if (roll < 0.4) return Query::PointLookup(node, pred);
  if (roll < 0.65) return Query::Neighborhood(node);
  if (roll < 0.85) {
    return Query::AttributeByType(kTypes[rng.UniformIndex(kTypes.size())],
                                  pred);
  }
  return Query::TopKRelated(node, static_cast<size_t>(rng.UniformInt(0, 8)));
}

ClusterOptions FastClusterOptions(size_t shards, size_t replicas) {
  ClusterOptions opts;
  opts.num_shards = shards;
  opts.replicas_per_shard = replicas;
  opts.heartbeat_interval_ms = 2;
  opts.receiver.heartbeat_timeout_ms = 250;
  opts.receiver.dial_retry_ms = 1;
  opts.receiver.max_dial_attempts = 50;
  opts.supervisor.interval_ms = 10;
  return opts;
}

void RunWorld(uint64_t seed, size_t shards, size_t replicas) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(shards) +
               " replicas=" + std::to_string(replicas));
  World world = MakeWorld(seed);
  Rng rng(seed * 7919 + shards * 131 + replicas * 17);

  auto reference = store::VersionedKgStore::Open(world.kg, {});
  ASSERT_TRUE(reference.ok()) << reference.status();
  KnowledgeGraph oracle = world.kg;

  auto cluster = Cluster::Create(world.kg, FastClusterOptions(shards,
                                                              replicas));
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  std::vector<Query> all_queries;
  for (int phase = 0; phase < kPhases; ++phase) {
    // Seeded replica kill/revive mid-workload: queries must stay
    // byte-identical through it (the primary can always prove
    // freshness; a dead replica is skipped, not an error).
    size_t killed_shard = 0, killed_replica = 0;
    bool killed = false;
    if (replicas > 0 && rng.Bernoulli(0.6)) {
      killed_shard = rng.UniformIndex(shards);
      killed_replica = rng.UniformIndex(replicas);
      (*cluster)->KillReplica(killed_shard, killed_replica);
      killed = true;
    }

    std::vector<Mutation> batch;
    for (int i = 0; i < kMutationsPerPhase; ++i) {
      batch.push_back(RandomMutation(world, oracle, rng));
    }
    for (const Mutation& m : batch) ApplyToKg(&oracle, m);
    ASSERT_TRUE((*reference)->ApplyBatch(batch).ok());
    ASSERT_TRUE((*cluster)->Apply(batch).ok());

    for (int i = 0; i < kQueriesPerPhase; ++i) {
      const Query q = RandomQuery(world, rng);
      all_queries.push_back(q);
      auto expected = (*reference)->TryExecute(q);
      auto actual = (*cluster)->Execute(q);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      EXPECT_EQ(*actual, *expected) << "phase " << phase << " query " << i;
    }

    if (killed) (*cluster)->ReviveReplica(killed_shard, killed_replica);
  }

  if (replicas > 0) {
    // Quiesce, then kill every primary: the same workload must now be
    // answered — byte-identically — from replicas alone, proving the
    // shipped-and-verified WAL prefix reconstructed the exact state.
    ASSERT_TRUE((*cluster)->WaitForCatchUp(10000));
    for (size_t s = 0; s < shards; ++s) (*cluster)->KillPrimary(s);
    const uint64_t shed_before = (*cluster)->router().stats().shed;
    for (const Query& q : all_queries) {
      auto expected = (*reference)->TryExecute(q);
      auto actual = (*cluster)->Execute(q);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      EXPECT_EQ(*actual, *expected);
    }
    EXPECT_EQ((*cluster)->router().stats().shed, shed_before)
        << "replica-only serving should never shed after catch-up";
    EXPECT_GT((*cluster)->router().stats().failovers, 0u);
  }
}

TEST(ClusterPropertyTest, ShardedMatchesSingleStoreAcrossMatrix) {
  for (int w = 0; w < kNumWorlds; ++w) {
    for (const size_t shards : {1, 2, 4}) {
      for (const size_t replicas : {0, 1, 2}) {
        RunWorld(7000 + w, shards, replicas);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ---- Wire trace propagation through the router --------------------------

/// True when `span` or any descendant is a "store.execute" span — the
/// store-side leaf a routed query's trace must reach.
bool ReachesStoreExecute(const obs::JsonValue& span) {
  const obs::JsonValue* name = span.Find("name");
  if (name != nullptr && name->string_value == "store.execute") return true;
  const obs::JsonValue* children = span.Find("children");
  if (children == nullptr) return false;
  for (const obs::JsonValue& child : children->array) {
    if (ReachesStoreExecute(child)) return true;
  }
  return false;
}

/// Every top-level span must be a "route.<class>" root whose tree
/// reaches a "store.execute" leaf; returns the number of such trees.
size_t CountConnectedRouteTrees(const std::string& trace_json) {
  const auto doc = obs::ParseJson(trace_json);
  if (!doc.ok()) return 0;
  const obs::JsonValue* spans = doc->Find("spans");
  if (spans == nullptr || !spans->is_array()) return 0;
  size_t trees = 0;
  for (const obs::JsonValue& root : spans->array) {
    const obs::JsonValue* name = root.Find("name");
    if (name == nullptr || name->string_value.rfind("route.", 0) != 0) {
      return 0;  // A disconnected non-route root breaks the property.
    }
    if (!ReachesStoreExecute(root)) return 0;
    ++trees;
  }
  return trees;
}

constexpr size_t kTracedQueries = 12;

/// Seeded traced run: fixed clock, fixed workload, `worker_threads`
/// per-member server threads. Returns the tracer's JSON forest.
std::string RunTracedWorld(size_t worker_threads,
                           const FaultInjector* injector) {
  World world = MakeWorld(7321);
  obs::FixedTraceClock clock;
  obs::Tracer tracer(42, &clock);
  ClusterOptions opts = FastClusterOptions(2, 1);
  opts.tracer = &tracer;
  opts.server_worker_threads = worker_threads;
  opts.injector = injector;
  if (injector != nullptr) opts.receiver.max_dial_attempts = 200;
  auto cluster = Cluster::Create(world.kg, opts);
  KG_CHECK_OK(cluster.status());
  KG_CHECK((*cluster)->WaitForCatchUp(30000));
  Rng rng(4242);
  for (size_t i = 0; i < kTracedQueries; ++i) {
    KG_CHECK_OK((*cluster)->Execute(RandomQuery(world, rng)).status());
  }
  (*cluster).reset();  // Joins every member before exporting spans.
  return tracer.ToJson();
}

TEST(ClusterPropertyTest, TracedForestIsByteIdenticalAcrossThreadCounts) {
  const std::string one = RunTracedWorld(1, nullptr);
  const std::string two = RunTracedWorld(2, nullptr);
  const std::string eight = RunTracedWorld(8, nullptr);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // And across a second same-seed run at the same thread count.
  EXPECT_EQ(two, RunTracedWorld(2, nullptr));
#ifndef KG_OBS_NOOP
  // One connected route->shard->member->store.execute tree per query.
  EXPECT_EQ(CountConnectedRouteTrees(one), kTracedQueries);
#endif
}

TEST(ClusterPropertyTest, TracedForestStaysConnectedUnderChaos) {
  FaultPlan plan;
  plan.seed = 1337;
  plan.transient_rate = 0.05;
  const FaultInjector injector(plan);
  const std::string forest = RunTracedWorld(2, &injector);
#ifndef KG_OBS_NOOP
  // Chaos may retry a query (extra spans inside a tree) but every
  // answered query still renders one connected route tree.
  EXPECT_EQ(CountConnectedRouteTrees(forest), kTracedQueries);
#endif
}

}  // namespace
}  // namespace kg::cluster
