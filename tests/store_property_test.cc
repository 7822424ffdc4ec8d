// Property harness for the versioned store — the determinism contract of
// the whole subsystem. For 100 seeded random (base KG, mutation stream,
// workload) worlds:
//   1. every store answer through the overlay == a QueryEngine over a
//      from-scratch rebuild that applied the same mutations (checked at
//      multiple checkpoints, cache on);
//   2. compaction's output snapshot fingerprint == the fingerprint of a
//      batch build of the same knowledge, and answers are unchanged by
//      the fold (including folds in the middle of the stream);
//   3. a batch over one pinned epoch is bit-identical at 1/2/8 threads;
//   4. the store's knowledge fingerprints identically to the oracle
//      after every batch;
//   5. for half the worlds, a store reopened from its WAL alone folds
//      the log into a base that equals a batch build of the oracle and
//      answers the workload identically;
//   6. after every commit, compaction and reopen, the epoch's overlay
//      runs and names equal a recomputation from its base and the
//      mutation log (compared in names, whatever ids they got); the
//      out-hop read (routed top-k's second round) equals the entities in
//      a rebuild's out-neighborhoods; and the scoring read (its third
//      round), fed the store's own out-hop pairs, equals a rebuild's
//      top-k.
// Worlds come from kg::synth universes plus hostile names, duplicate
// upserts, retractions of base and overlay triples, resurrections, and
// overlay changes to the membership of the queried classes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_policy.h"
#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "store/wal.h"
#include "store_overlay_oracle.h"
#include "synth/entity_universe.h"

namespace kg::store {
namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Provenance;
using graph::TripleId;
using serve::Query;
using serve::QueryResult;

constexpr int kNumWorlds = 100;
constexpr int kMutationsPerWorld = 40;
constexpr int kQueriesPerWorld = 30;

const std::vector<std::string>& HostileNames() {
  static const std::vector<std::string> kNames = {
      "", "tab\there", "line\nbreak", "back\\slash", "\\t literal",
      "h\xc3\xa9llo w\xc3\xb6rld", "quote'\"q", "person:0",
  };
  return kNames;
}

struct World {
  KnowledgeGraph kg;
  std::vector<std::string> names;       // node-name pool for mutations
  std::vector<std::string> predicates;  // predicate pool
};

World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  synth::UniverseOptions options;
  options.num_people = static_cast<size_t>(rng.UniformInt(10, 25));
  options.num_movies = static_cast<size_t>(rng.UniformInt(8, 18));
  options.num_songs = static_cast<size_t>(rng.UniformInt(4, 10));
  const auto universe = synth::EntityUniverse::Generate(options, rng);

  World world;
  world.kg = universe.ToKnowledgeGraph();
  const Provenance prov{"store_prop", 1.0, 0};
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
  const auto& hostile = HostileNames();
  world.names.insert(world.names.end(), hostile.begin(), hostile.end());
  // Names no base triple uses: nodes only the overlay can create.
  for (int i = 0; i < 3; ++i) {
    world.names.push_back("fresh:" + std::to_string(i));
  }
  world.predicates = {"knows",       "type",       "name",    "genre",
                      "directed_by", "acted_in",   "mentors", "hostile_p",
                      "performed_by", "no_such_predicate"};
  return world;
}

NodeKind RandomKind(Rng& rng) {
  // Mostly entities; sometimes text/class so kind-collisions and
  // cross-kind shadowing get exercised.
  if (rng.Bernoulli(0.7)) return NodeKind::kEntity;
  return rng.Bernoulli(0.5) ? NodeKind::kText : NodeKind::kClass;
}

/// A `type` edge into a queried class, so the overlay changes what
/// attribute-by-type reads as the class's members. The pool holds
/// members, base nodes outside the class (songs, the other class) and
/// names only the overlay creates; upserts add members, retracts remove
/// base and overlay-added ones.
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

/// One random mutation. Retracts are aimed at live triples half the
/// time (via the oracle's current state) so shadowing of real base
/// triples — not just misses — dominates.
Mutation RandomMutation(const World& world, const KnowledgeGraph& oracle,
                        Rng& rng) {
  if (rng.Bernoulli(0.2)) return MembershipMutation(world, rng);
  const double roll = rng.UniformDouble();
  if (roll < 0.45) {
    // Retract: prefer an existing live triple.
    const std::vector<TripleId> live = oracle.AllTriples();
    if (!live.empty() && rng.Bernoulli(0.8)) {
      const graph::Triple& t = oracle.triple(live[rng.UniformIndex(live.size())]);
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
  // Upsert: sometimes duplicate an existing triple (provenance append /
  // resurrection), sometimes brand-new knowledge.
  Provenance prov;
  prov.source = rng.Bernoulli(0.5) ? "feed_a" : "feed_b";
  prov.confidence = rng.UniformDouble();
  prov.timestamp = rng.UniformInt(0, 1000);
  const std::vector<TripleId> live = oracle.AllTriples();
  if (!live.empty() && rng.Bernoulli(0.25)) {
    const graph::Triple& t = oracle.triple(live[rng.UniformIndex(live.size())]);
    return Mutation::Upsert(
        oracle.NodeName(t.subject), oracle.PredicateName(t.predicate),
        oracle.NodeName(t.object), oracle.GetNodeKind(t.subject),
        oracle.GetNodeKind(t.object), std::move(prov));
  }
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

std::vector<Query> MakeWorkload(const World& world, Rng& rng) {
  std::vector<Query> queries;
  const std::vector<std::string> types = {"Person", "Movie", "NoSuchType"};
  for (int i = 0; i < kQueriesPerWorld; ++i) {
    const std::string& node =
        world.names[rng.UniformIndex(world.names.size())];
    const std::string& pred =
        world.predicates[rng.UniformIndex(world.predicates.size())];
    const NodeKind kind =
        rng.Bernoulli(0.85) ? NodeKind::kEntity : RandomKind(rng);
    const double roll = rng.UniformDouble();
    if (roll < 0.35) {
      queries.push_back(Query::PointLookup(node, pred, kind));
    } else if (roll < 0.65) {
      queries.push_back(Query::Neighborhood(node, kind));
    } else if (roll < 0.85) {
      queries.push_back(
          Query::AttributeByType(types[rng.UniformIndex(types.size())],
                                 pred));
    } else {
      queries.push_back(Query::TopKRelated(
          node, static_cast<size_t>(rng.UniformInt(0, 8)), kind));
    }
  }
  return queries;
}

/// Checks every workload answer (through the store's cache) against a
/// QueryEngine over a from-scratch compile of the oracle.
void ExpectStoreMatchesRebuild(const VersionedKgStore& store,
                               const KnowledgeGraph& oracle,
                               const std::vector<Query>& workload,
                               uint64_t seed, const char* where) {
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(oracle);
  const serve::QueryEngine engine(snap);
  for (const Query& q : workload) {
    ASSERT_EQ(store.Execute(q), engine.ExecuteUncached(q))
        << where << ", world seed " << seed << ", query " << q.CacheKey();
  }
}

/// Checks the current epoch's overlay against its definition, recomputed
/// from its base and `log`, every mutation applied since Open. Answers
/// alone cannot catch stale runs right after a fold (an empty overlay
/// serves straight off the base), so this is checked directly.
void ExpectOverlayMatchesLog(const VersionedKgStore& store,
                             const std::vector<Mutation>& log, uint64_t seed,
                             const char* where) {
  const std::shared_ptr<const StoreEpoch> epoch = store.PinEpoch();
  ASSERT_TRUE(OverlayMatchesLog(*epoch, log))
      << where << ", world seed " << seed << ", version " << epoch->version;
}

/// The node of a rendered neighborhood row, "dir\tpredicate\tE:name": a
/// view into `row`. Predicates hold no tabs; names may.
serve::NodeKey RowNode(std::string_view row) {
  const std::string_view node =
      row.substr(row.find('\t', row.find('\t') + 1) + 1);
  const NodeKind kind = node[0] == 'E'   ? NodeKind::kEntity
                        : node[0] == 'T' ? NodeKind::kText
                                         : NodeKind::kClass;
  return serve::NodeKey{kind, node.substr(2)};
}

/// Checks routed top-k's two store reads against a rebuild, for every node
/// of the oracle, every pool name under every kind, and one absent name:
/// TryOutEntitiesTagged must list the distinct entities of the rebuild
/// engine's "out" Neighborhood rows, and TryRingScoresTagged, fed the
/// node's ring (its distinct rebuild neighbors) and every out-hop pair the
/// store reports for that ring — on one store, every pair is this shard's
/// — must render the rebuild engine's TopKRelated.
void ExpectRoutedTopKReadsMatchRebuild(const VersionedKgStore& store,
                                       const KnowledgeGraph& oracle,
                                       const World& world, uint64_t seed,
                                       const char* where) {
  std::vector<serve::NodeKey> nodes;
  for (graph::NodeId id = 0; id < oracle.num_nodes(); ++id) {
    nodes.emplace_back(oracle.GetNodeKind(id), oracle.NodeName(id));
  }
  for (const std::string& name : world.names) {
    for (const NodeKind kind :
         {NodeKind::kEntity, NodeKind::kText, NodeKind::kClass}) {
      nodes.emplace_back(kind, name);
    }
  }
  nodes.emplace_back(NodeKind::kEntity, "no such node");
  const auto got = store.TryOutEntitiesTagged(nodes);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->epoch, store.applied_watermark());
  ASSERT_EQ(got->entities.size(), nodes.size());
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(oracle);
  const serve::QueryEngine engine(snap);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const serve::NodeKey& center = nodes[i];
    const auto& [kind, name] = center;
    const QueryResult rows = engine.ExecuteUncached(
        Query::Neighborhood(std::string(name), kind));
    std::vector<std::string> out_entities;
    std::vector<serve::NodeKey> ring;  // Views into `rows`.
    for (const std::string& row : rows) {
      const serve::NodeKey n = RowNode(row);
      if (row.rfind("out\t", 0) == 0 && n.first == NodeKind::kEntity) {
        out_entities.emplace_back(n.second);
      }
      if (n != center) ring.push_back(n);
    }
    std::sort(out_entities.begin(), out_entities.end());
    out_entities.erase(
        std::unique(out_entities.begin(), out_entities.end()),
        out_entities.end());
    ASSERT_EQ(got->entities[i], out_entities)
        << where << ", world seed " << seed << ", node kind "
        << static_cast<int>(kind) << " name '" << name << "'";

    std::sort(ring.begin(), ring.end());
    ring.erase(std::unique(ring.begin(), ring.end()), ring.end());
    const auto out_hops = store.TryOutEntitiesTagged(ring);
    ASSERT_TRUE(out_hops.ok()) << out_hops.status();
    std::vector<serve::RingHop> hops;
    for (size_t j = 0; j < ring.size(); ++j) {
      for (const std::string& m : out_hops->entities[j]) {
        hops.push_back(serve::RingHop{static_cast<uint32_t>(j), m});
      }
    }
    const size_t k = 1 + i % 8;
    const auto scores = store.TryRingScoresTagged(center, ring, hops, k);
    ASSERT_TRUE(scores.ok()) << scores.status();
    ASSERT_EQ(scores->epoch, store.applied_watermark());
    QueryResult rendered;
    for (const serve::ScoredEntity& e : scores->best) {
      rendered.push_back(serve::RenderNodeName(e.name, NodeKind::kEntity) +
                         '\t' + std::to_string(e.count));
    }
    ASSERT_EQ(rendered, engine.ExecuteUncached(
                            Query::TopKRelated(std::string(name), k, kind)))
        << where << ", world seed " << seed << ", center kind "
        << static_cast<int>(kind) << " name '" << name << "', k " << k;
  }
}

TEST(StorePropertyTest, OverlayReadsEqualRebuildAcrossWorlds) {
  int checked = 0;
  for (int world_idx = 0; world_idx < kNumWorlds; ++world_idx) {
    const uint64_t seed = 5000 + static_cast<uint64_t>(world_idx);
    World world = MakeWorld(seed);
    Rng rng(seed * 131 + 17);
    const std::vector<Query> workload = MakeWorkload(world, rng);

    StoreOptions options;
    options.cache_capacity = 32;  // small: forces evictions + refills
    if (world_idx % 2 == 0) {
      options.wal_path = (std::filesystem::temp_directory_path() /
                          ("kg_store_prop_" + std::to_string(seed) + ".wal"))
                             .string();
      std::filesystem::remove(options.wal_path);
    }
    auto opened = VersionedKgStore::Open(world.kg, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto& store = **opened;
    KnowledgeGraph oracle = world.kg;
    std::vector<Mutation> log;

    // Apply the stream in random-size batches with two checkpoints and
    // (for some worlds) a fold in the middle of the stream.
    const int mid_compact_at =
        rng.Bernoulli(0.5) ? static_cast<int>(rng.UniformInt(
                                 5, kMutationsPerWorld - 5))
                           : -1;
    int applied = 0;
    while (applied < kMutationsPerWorld) {
      const int batch_size = static_cast<int>(rng.UniformInt(1, 5));
      std::vector<Mutation> batch;
      for (int b = 0; b < batch_size && applied < kMutationsPerWorld;
           ++b, ++applied) {
        batch.push_back(RandomMutation(world, oracle, rng));
        ApplyToKg(&oracle, batch.back());
      }
      ASSERT_TRUE(store.ApplyBatch(batch).ok());
      log.insert(log.end(), batch.begin(), batch.end());
      ExpectOverlayMatchesLog(store, log, seed, "after commit");
      ExpectRoutedTopKReadsMatchRebuild(store, oracle, world, seed,
                                        "after commit");
      ASSERT_EQ(store.AuthoritativeFingerprint(),
                graph::TripleSetFingerprint(oracle))
          << "world seed " << seed << " after " << applied << " mutations";
      if (mid_compact_at >= 0 && applied >= mid_compact_at &&
          store.delta_size() > 0) {
        const auto stats = store.Compact();
        ASSERT_TRUE(stats.ran);
        ASSERT_EQ(stats.base_fingerprint,
                  serve::KgSnapshot::Compile(oracle).Fingerprint())
            << "mid-stream fold, world seed " << seed;
        ExpectOverlayMatchesLog(store, log, seed, "mid-stream fold");
        ExpectRoutedTopKReadsMatchRebuild(store, oracle, world, seed,
                                          "mid-stream fold");
      }
      if (applied == kMutationsPerWorld / 2 ||
          applied >= kMutationsPerWorld) {
        ExpectStoreMatchesRebuild(store, oracle, workload, seed,
                                  "checkpoint");
        checked += static_cast<int>(workload.size());
      }
    }

    // Thread-count invariance over the final overlay state.
    const auto serial = ExecuteBatch(store, workload, ExecPolicy::Serial());
    for (size_t threads : {2u, 8u}) {
      ASSERT_EQ(ExecuteBatch(store, workload,
                             ExecPolicy::WithThreads(threads)),
                serial)
          << "world seed " << seed << ", threads " << threads;
    }

    // Final fold: compaction output == batch build, answers unchanged.
    const auto stats = store.Compact();
    ASSERT_TRUE(stats.ran);
    ASSERT_EQ(stats.base_fingerprint,
              serve::KgSnapshot::Compile(oracle).Fingerprint())
        << "world seed " << seed;
    ASSERT_EQ(store.delta_size(), 0u);
    ExpectOverlayMatchesLog(store, log, seed, "final fold");
    ExpectRoutedTopKReadsMatchRebuild(store, oracle, world, seed,
                                      "final fold");
    ExpectStoreMatchesRebuild(store, oracle, workload, seed,
                              "post-compaction");
    ASSERT_EQ(ExecuteBatch(store, workload, ExecPolicy::Serial()), serial)
        << "compaction changed an answer, world seed " << seed;

    if (!options.wal_path.empty()) {
      // Reopen from the same base and the WAL alone: recovery folds the
      // whole log into the first base.
      opened->reset();
      auto reopened = VersionedKgStore::Open(world.kg, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      ASSERT_EQ((*reopened)->delta_size(), 0u);
      ExpectOverlayMatchesLog(**reopened, log, seed, "reopened from WAL");
      ExpectRoutedTopKReadsMatchRebuild(**reopened, oracle, world, seed,
                                        "reopened from WAL");
      ASSERT_EQ((*reopened)->PinEpoch()->base->Fingerprint(),
                serve::KgSnapshot::Compile(oracle).Fingerprint())
          << "reopened base, world seed " << seed;
      ExpectStoreMatchesRebuild(**reopened, oracle, workload, seed,
                                "reopened from WAL");
      reopened->reset();
      std::filesystem::remove(options.wal_path);
    }
  }
  // The suite only counts if it exercised the budgeted volume.
  EXPECT_GE(checked, kNumWorlds * kQueriesPerWorld);
}

}  // namespace
}  // namespace kg::store
