// Property harness for the kg::serve query path: for seeded random
// (KG, workload) pairs, every QueryEngine answer must equal a brute-force
// scan over the raw KnowledgeGraph, cache-on must equal cache-off, and
// batch-parallel must equal serial at 1/2/8 threads. The query bodies
// must also hold to brute force when every edge reaches them by name.
// The KGs come from kg::synth universes plus adversarial extra triples
// (hostile names, duplicates, tombstones) so the snapshot compiler sees
// more than clean generator output.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/read.h"
#include "serve/snapshot.h"
#include "synth/entity_universe.h"

namespace kg::serve {
namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Triple;
using graph::TripleId;

constexpr int kNumWorlds = 100;
constexpr int kQueriesPerWorld = 60;

// ---- Brute-force reference --------------------------------------------
// Answers queries by scanning AllTriples() on the raw KG — no snapshot,
// no index, no cache. Deliberately written against the spec in
// query_engine.h, independently of the engine's code paths.

std::string Render(const KnowledgeGraph& kg, graph::NodeId n) {
  return RenderNodeName(kg.NodeName(n), kg.GetNodeKind(n));
}

bool NodeMatches(const KnowledgeGraph& kg, graph::NodeId n,
                 const std::string& name, NodeKind kind) {
  return kg.GetNodeKind(n) == kind && kg.NodeName(n) == name;
}

QueryResult BrutePointLookup(const KnowledgeGraph& kg, const Query& q) {
  QueryResult rows;
  for (TripleId id : kg.AllTriples()) {
    const Triple& t = kg.triple(id);
    if (!NodeMatches(kg, t.subject, q.node, q.node_kind)) continue;
    if (kg.PredicateName(t.predicate) != q.predicate) continue;
    rows.push_back(Render(kg, t.object));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

QueryResult BruteNeighborhood(const KnowledgeGraph& kg, const Query& q) {
  QueryResult rows;
  for (TripleId id : kg.AllTriples()) {
    const Triple& t = kg.triple(id);
    if (NodeMatches(kg, t.subject, q.node, q.node_kind)) {
      rows.push_back("out\t" + kg.PredicateName(t.predicate) + '\t' +
                     Render(kg, t.object));
    }
    if (NodeMatches(kg, t.object, q.node, q.node_kind)) {
      rows.push_back("in\t" + kg.PredicateName(t.predicate) + '\t' +
                     Render(kg, t.subject));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

QueryResult BruteAttributeByType(const KnowledgeGraph& kg,
                                 const Query& q) {
  std::vector<graph::NodeId> members;
  for (TripleId id : kg.AllTriples()) {
    const Triple& t = kg.triple(id);
    if (kg.PredicateName(t.predicate) != q.type_predicate) continue;
    if (!NodeMatches(kg, t.object, q.type_name, NodeKind::kClass)) continue;
    members.push_back(t.subject);
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()),
                members.end());
  QueryResult rows;
  for (TripleId id : kg.AllTriples()) {
    const Triple& t = kg.triple(id);
    if (kg.PredicateName(t.predicate) != q.predicate) continue;
    if (!std::binary_search(members.begin(), members.end(), t.subject)) {
      continue;
    }
    rows.push_back(Render(kg, t.subject) + '\t' + Render(kg, t.object));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<graph::NodeId> BruteAdjacent(const KnowledgeGraph& kg,
                                         graph::NodeId n) {
  std::vector<graph::NodeId> out;
  for (TripleId id : kg.AllTriples()) {
    const Triple& t = kg.triple(id);
    if (t.subject == n) out.push_back(t.object);
    if (t.object == n) out.push_back(t.subject);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

QueryResult BruteTopKRelated(const KnowledgeGraph& kg, const Query& q) {
  if (q.k == 0) return {};
  graph::NodeId center = graph::kInvalidNode;
  const auto found = kg.FindNode(q.node, q.node_kind);
  if (!found.ok()) return {};
  center = *found;
  // A node interned in the KG may still be absent from every live triple;
  // the snapshot compiles such nodes out, so their shelf is empty either
  // way (no adjacency means no scores).
  std::map<graph::NodeId, size_t> score;
  for (graph::NodeId n : BruteAdjacent(kg, center)) {
    if (n == center) continue;
    for (graph::NodeId m : BruteAdjacent(kg, n)) {
      if (m == center) continue;
      if (kg.GetNodeKind(m) != NodeKind::kEntity) continue;
      ++score[m];
    }
  }
  std::vector<std::pair<graph::NodeId, size_t>> ranked(score.begin(),
                                                       score.end());
  std::sort(ranked.begin(), ranked.end(),
            [&kg](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return kg.NodeName(a.first) < kg.NodeName(b.first);
            });
  if (ranked.size() > q.k) ranked.resize(q.k);
  QueryResult rows;
  for (const auto& [m, count] : ranked) {
    rows.push_back(Render(kg, m) + '\t' + std::to_string(count));
  }
  return rows;
}

QueryResult BruteForce(const KnowledgeGraph& kg, const Query& q) {
  switch (q.kind) {
    case QueryKind::kPointLookup:
      return BrutePointLookup(kg, q);
    case QueryKind::kNeighborhood:
      return BruteNeighborhood(kg, q);
    case QueryKind::kAttributeByType:
      return BruteAttributeByType(kg, q);
    case QueryKind::kTopKRelated:
      return BruteTopKRelated(kg, q);
  }
  return {};
}

// ---- World generation --------------------------------------------------

const std::vector<std::string>& HostileNames() {
  static const std::vector<std::string> kNames = {
      "",
      "tab\there",
      "line\nbreak",
      "back\\slash",
      "\\t literal",
      "h\xc3\xa9llo w\xc3\xb6rld",
      "quote'\"q",
      "ctrl\x7f" "char",
      "person:0",  // Collides with a generated entity name as kText.
  };
  return kNames;
}

struct World {
  KnowledgeGraph kg;
  std::vector<std::string> entity_names;  // Sample pool for queries.
  std::vector<std::string> predicates;
};

World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  synth::UniverseOptions options;
  options.num_people = static_cast<size_t>(rng.UniformInt(15, 50));
  options.num_movies = static_cast<size_t>(rng.UniformInt(10, 35));
  options.num_songs = static_cast<size_t>(rng.UniformInt(5, 20));
  const auto universe = synth::EntityUniverse::Generate(options, rng);

  World world;
  world.kg = universe.ToKnowledgeGraph();

  // Class membership so attribute-by-type has something to chew on.
  const graph::Provenance prov{"serve_test", 1.0, 0};
  for (const auto& p : universe.people()) {
    world.kg.AddTriple(synth::EntityUniverse::PersonNodeName(p.id), "type",
                       "Person", NodeKind::kEntity, NodeKind::kClass, prov);
  }
  for (const auto& m : universe.movies()) {
    world.kg.AddTriple(synth::EntityUniverse::MovieNodeName(m.id), "type",
                       "Movie", NodeKind::kEntity, NodeKind::kClass, prov);
  }
  for (const auto& s : universe.songs()) {
    world.kg.AddTriple(synth::EntityUniverse::SongNodeName(s.id), "type",
                       "Song", NodeKind::kEntity, NodeKind::kClass, prov);
  }

  // Adversarial garnish: hostile names in random kinds, duplicate
  // assertions, and tombstones (including one that orphans its nodes).
  const auto& hostile = HostileNames();
  const auto kinds = std::vector<NodeKind>{
      NodeKind::kEntity, NodeKind::kText, NodeKind::kClass};
  std::vector<TripleId> extra;
  for (int i = 0; i < 12; ++i) {
    const auto& s = hostile[rng.UniformIndex(hostile.size())];
    const auto& o = hostile[rng.UniformIndex(hostile.size())];
    extra.push_back(world.kg.AddTriple(
        s, "hostile_" + std::to_string(rng.UniformInt(0, 2)), o,
        kinds[rng.UniformIndex(kinds.size())],
        kinds[rng.UniformIndex(kinds.size())], prov));
  }
  for (int i = 0; i < 3; ++i) {
    world.kg.RemoveTriple(extra[rng.UniformIndex(extra.size())]);
  }
  const TripleId orphaned = world.kg.AddTriple(
      "only_in_tombstone", "gone", "also_gone", NodeKind::kEntity,
      NodeKind::kEntity, prov);
  world.kg.RemoveTriple(orphaned);

  // Hostile members of Person, each with one name of its own, so Person
  // scans mix kinds and names with bytes below '\t': rows the engine
  // produces out of byte order. Their own stream leaves the draws above
  // as they were.
  Rng member_rng(seed * 17 + 3);
  for (int i = 0; i < 6; ++i) {
    const auto& m = hostile[member_rng.UniformIndex(hostile.size())];
    const NodeKind kind = kinds[member_rng.UniformIndex(kinds.size())];
    world.kg.AddTriple(m, "type", "Person", kind, NodeKind::kClass, prov);
    world.kg.AddTriple(m, "name",
                       hostile[member_rng.UniformIndex(hostile.size())],
                       kind, kinds[member_rng.UniformIndex(kinds.size())],
                       prov);
  }

  for (const auto& p : universe.people()) {
    world.entity_names.push_back(
        synth::EntityUniverse::PersonNodeName(p.id));
  }
  for (const auto& m : universe.movies()) {
    world.entity_names.push_back(
        synth::EntityUniverse::MovieNodeName(m.id));
  }
  for (const auto& s : universe.songs()) {
    world.entity_names.push_back(synth::EntityUniverse::SongNodeName(s.id));
  }
  world.entity_names.push_back("only_in_tombstone");
  world.entity_names.insert(world.entity_names.end(), hostile.begin(),
                            hostile.end());

  world.predicates = {"name",        "birth_year", "nationality",
                      "title",       "release_year", "genre",
                      "directed_by", "acted_in",   "performed_by",
                      "type",        "hostile_0",  "hostile_1",
                      "no_such_predicate"};
  return world;
}

std::vector<Query> MakeWorkload(const World& world, Rng& rng) {
  std::vector<Query> queries;
  const auto kinds = std::vector<NodeKind>{
      NodeKind::kEntity, NodeKind::kText, NodeKind::kClass};
  const std::vector<std::string> types = {"Person", "Movie", "Song",
                                          "NoSuchType"};
  for (int i = 0; i < kQueriesPerWorld; ++i) {
    const std::string& node =
        world.entity_names[rng.UniformIndex(world.entity_names.size())];
    const std::string& pred =
        world.predicates[rng.UniformIndex(world.predicates.size())];
    // Mostly entity addressing, sometimes a deliberately wrong kind.
    const NodeKind node_kind = rng.Bernoulli(0.85)
                                   ? NodeKind::kEntity
                                   : kinds[rng.UniformIndex(kinds.size())];
    const double roll = rng.UniformDouble();
    if (roll < 0.4) {
      queries.push_back(Query::PointLookup(node, pred, node_kind));
    } else if (roll < 0.65) {
      queries.push_back(Query::Neighborhood(node, node_kind));
    } else if (roll < 0.85) {
      Query q = Query::AttributeByType(
          types[rng.UniformIndex(types.size())], pred);
      if (rng.Bernoulli(0.1)) q.type_predicate = "no_such_predicate";
      queries.push_back(std::move(q));
    } else {
      queries.push_back(Query::TopKRelated(
          node, static_cast<size_t>(rng.UniformInt(0, 12)), node_kind));
    }
  }
  return queries;
}

// ---- The properties ----------------------------------------------------

TEST(ServePropertyTest, EngineMatchesBruteForceCacheAndParallel) {
  int checked_queries = 0;
  for (int world_idx = 0; world_idx < kNumWorlds; ++world_idx) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(world_idx);
    const World world = MakeWorld(seed);
    Rng rng(seed * 31 + 7);
    const std::vector<Query> workload = MakeWorkload(world, rng);

    const KgSnapshot snap = KgSnapshot::Compile(world.kg);

    const QueryEngine uncached(snap);
    ServeOptions cached_options;
    cached_options.cache_capacity = 32;  // Small: forces evictions.
    const QueryEngine cached(snap, cached_options);

    // Property 1+2: engine == brute force, cache-on == cache-off —
    // including a warm second pass through the cache.
    std::vector<QueryResult> reference;
    reference.reserve(workload.size());
    for (const Query& q : workload) {
      const QueryResult expected = BruteForce(world.kg, q);
      const QueryResult actual = uncached.Execute(q);
      ASSERT_EQ(actual, expected)
          << "world seed " << seed << ", query " << q.CacheKey();
      ASSERT_EQ(cached.Execute(q), expected)
          << "cold cache diverged, world seed " << seed << ", query "
          << q.CacheKey();
      reference.push_back(expected);
      ++checked_queries;
    }
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_EQ(cached.Execute(workload[i]), reference[i])
          << "warm cache diverged, world seed " << seed << ", query "
          << workload[i].CacheKey();
    }

    // Property 3: batch-parallel == serial at 1/2/8 threads, cache on
    // and off.
    for (size_t threads : {1u, 2u, 8u}) {
      for (size_t cache_capacity : {0u, 32u}) {
        ServeOptions options;
        options.exec = ExecPolicy::WithThreads(threads);
        options.cache_capacity = cache_capacity;
        const QueryEngine engine(snap, options);
        ASSERT_EQ(engine.BatchExecute(workload), reference)
            << "world seed " << seed << ", threads " << threads
            << ", cache " << cache_capacity;
      }
    }
  }
  // The suite only counts if it actually exercised the budgeted volume.
  EXPECT_EQ(checked_queries, kNumWorlds * kQueriesPerWorld);
}

// A view (serve/read.h) that reports every snapshot edge through the name
// branch, the one a store overlay takes: BaseId always misses, Only has
// no id, and the walk finds each node and matches each predicate by name.
// Every query body then answers from names alone.
struct NamesOnlyView {
  const KgSnapshot& base;

  NodeId BaseId(const NodeKey&) const { return kInvalidNode; }

  OnePredicate Only(std::string_view name) const {
    return OnePredicate{name, kInvalidNode};
  }

  template <typename OnBase, typename OnOverlay>
  void ForEachEdge(NodeId, const NodeKey& n, Direction dir,
                   const OnePredicate* only, const OnBase&,
                   const OnOverlay& on_overlay) const {
    const NodeId id = base.FindNode(n.second, n.first);
    if (id == kInvalidNode) return;
    for (const KgSnapshot::Edge& e :
         dir == Direction::kOut ? base.OutEdges(id) : base.InEdges(id)) {
      const std::string_view predicate = base.PredicateName(e.first);
      if (only != nullptr && predicate != only->name) continue;
      on_overlay(predicate,
                 NodeKey{base.NodeKindOf(e.second), base.NodeName(e.second)});
    }
  }
};

// Each query body's name branch is correct on its own: through
// NamesOnlyView, every query in every world still equals brute force.
TEST(ServePropertyTest, NameBranchOfEveryBodyMatchesBruteForce) {
  int checked_queries = 0;
  for (int world_idx = 0; world_idx < kNumWorlds; ++world_idx) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(world_idx);
    const World world = MakeWorld(seed);
    Rng rng(seed * 31 + 7);
    const KgSnapshot snap = KgSnapshot::Compile(world.kg);
    const NamesOnlyView view{snap};
    for (const Query& q : MakeWorkload(world, rng)) {
      ASSERT_EQ(Read(view, q), BruteForce(world.kg, q))
          << "world seed " << seed << ", query " << q.CacheKey();
      ++checked_queries;
    }
  }
  EXPECT_EQ(checked_queries, kNumWorlds * kQueriesPerWorld);
}

// Snapshot compilation itself is deterministic across KG insertion
// orders: rebuilding the universe KG from its live triples in reverse
// order (which re-interns every node and predicate in a different id
// order) must yield the same fingerprint.
TEST(ServePropertyTest, SnapshotFingerprintSurvivesReinterning) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const World world = MakeWorld(seed);
    const KgSnapshot original = KgSnapshot::Compile(world.kg);
    const std::vector<graph::TripleId> live = world.kg.AllTriples();
    graph::KnowledgeGraph rebuilt;
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
      const graph::Triple& t = world.kg.triple(*it);
      for (const graph::Provenance& prov : world.kg.provenance(*it)) {
        rebuilt.AddTriple(world.kg.NodeName(t.subject),
                          world.kg.PredicateName(t.predicate),
                          world.kg.NodeName(t.object),
                          world.kg.GetNodeKind(t.subject),
                          world.kg.GetNodeKind(t.object), prov);
      }
    }
    ASSERT_EQ(rebuilt.num_triples(), world.kg.num_triples());
    bool reinterned = false;
    for (graph::NodeId id = 0; id < rebuilt.num_nodes(); ++id) {
      reinterned |= rebuilt.NodeName(id) != world.kg.NodeName(id);
    }
    ASSERT_TRUE(reinterned) << "seed " << seed;
    const KgSnapshot recompiled = KgSnapshot::Compile(rebuilt);
    EXPECT_EQ(original.Fingerprint(), recompiled.Fingerprint())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace kg::serve
