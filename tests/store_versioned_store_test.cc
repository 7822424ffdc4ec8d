// VersionedKgStore unit suite: overlay reads vs a from-scratch rebuild,
// upsert/retract/resurrect semantics, WAL crash recovery (bit-identical
// state), compaction folding + fingerprint equality with a batch build,
// the scan-answer cache's generation-tag rule, thread-count-invariant
// batch reads over one pinned epoch, and the write- and read-path stage
// histograms.

#include "store/versioned_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "common/thread_pool.h"
#include "graph/knowledge_graph.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/wal.h"
#include "store_overlay_oracle.h"

namespace kg::store {
namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Provenance;
using serve::Query;
using serve::QueryResult;

const Provenance kProv{"store_test", 1.0, 1};

KnowledgeGraph BaseKg() {
  KnowledgeGraph kg;
  kg.AddTriple("alice", "knows", "bob", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("alice", "knows", "carol", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("bob", "knows", "carol", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  kg.AddTriple("alice", "type", "Person", NodeKind::kEntity,
               NodeKind::kClass, kProv);
  kg.AddTriple("bob", "type", "Person", NodeKind::kEntity, NodeKind::kClass,
               kProv);
  kg.AddTriple("carol", "type", "Person", NodeKind::kEntity,
               NodeKind::kClass, kProv);
  kg.AddTriple("alice", "name", "Alice A.", NodeKind::kEntity,
               NodeKind::kText, kProv);
  kg.AddTriple("bob", "name", "Bob B.", NodeKind::kEntity, NodeKind::kText,
               kProv);
  return kg;
}

/// Applies `m` to a raw KG exactly as the store's writer does — the
/// rebuild oracle all overlay answers are checked against.
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
  const graph::TripleId id = kg->FindTriple(*s, *p, *o);
  if (id != graph::kInvalidTriple) kg->RemoveTriple(id);
}

std::vector<Query> ProbeQueries() {
  return {
      Query::PointLookup("alice", "knows"),
      Query::PointLookup("alice", "name"),
      Query::PointLookup("dana", "knows"),
      Query::Neighborhood("alice"),
      Query::Neighborhood("carol"),
      Query::Neighborhood("dana"),
      Query::AttributeByType("Person", "name"),
      Query::AttributeByType("Person", "knows"),
      Query::TopKRelated("alice", 5),
      Query::TopKRelated("carol", 3),
  };
}

/// Asserts every probe answer from `store` equals a fresh QueryEngine
/// over a from-scratch compile of `expected_kg`.
void ExpectMatchesRebuild(const VersionedKgStore& store,
                          const KnowledgeGraph& expected_kg,
                          const std::string& context) {
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(expected_kg);
  const serve::QueryEngine engine(snap);
  for (const Query& q : ProbeQueries()) {
    ASSERT_EQ(store.Execute(q), engine.ExecuteUncached(q))
        << context << ", query " << q.CacheKey();
  }
}

std::unique_ptr<VersionedKgStore> MustOpen(KnowledgeGraph base,
                                           StoreOptions options = {}) {
  auto store = VersionedKgStore::Open(std::move(base), std::move(options));
  EXPECT_TRUE(store.ok()) << store.status();
  return std::move(*store);
}

/// Runs `q` through `store` and reports whether the cached answer served
/// it: the cache counts a hit only for an entry stored under the query's
/// current tag.
bool ServedFromCache(VersionedKgStore& store, const Query& q) {
  const uint64_t hits = store.cache()->counters().hits;
  (void)store.Execute(q);
  return store.cache()->counters().hits == hits + 1;
}

struct TempWalPath {
  std::string path;
  explicit TempWalPath(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("kg_store_vs_test_" + tag + ".wal"))
               .string();
    std::filesystem::remove(path);
  }
  ~TempWalPath() { std::filesystem::remove(path); }
};

TEST(VersionedStoreTest, FreshStoreServesTheBaseSnapshot) {
  auto store = MustOpen(BaseKg());
  EXPECT_EQ(store->version(), 0u);
  EXPECT_EQ(store->delta_size(), 0u);
  EXPECT_EQ(store->applied_mutations(), 0u);
  ExpectMatchesRebuild(*store, BaseKg(), "fresh");
}

TEST(VersionedStoreTest, UpsertsAndRetractsMatchRebuildAtEveryStep) {
  auto store = MustOpen(BaseKg());
  KnowledgeGraph oracle = BaseKg();
  const std::vector<Mutation> script = {
      // New edge from an existing node to a brand-new node.
      Mutation::Upsert("alice", "knows", "dana", NodeKind::kEntity,
                       NodeKind::kEntity, kProv),
      // Entirely new subject, new predicate.
      Mutation::Upsert("dana", "manages", "bob", NodeKind::kEntity,
                       NodeKind::kEntity, kProv),
      // Retract a base triple.
      Mutation::Retract("alice", "knows", "bob", NodeKind::kEntity,
                        NodeKind::kEntity),
      // Retract an overlay triple applied above.
      Mutation::Retract("dana", "manages", "bob", NodeKind::kEntity,
                        NodeKind::kEntity),
      // Resurrect the retracted base triple.
      Mutation::Upsert("alice", "knows", "bob", NodeKind::kEntity,
                       NodeKind::kEntity, Provenance{"resurrect", 0.5, 9}),
      // Upsert of a triple the base already has (provenance append).
      Mutation::Upsert("bob", "knows", "carol", NodeKind::kEntity,
                       NodeKind::kEntity, Provenance{"second_source", 0.9, 7}),
      // Retract something that never existed: a no-op.
      Mutation::Retract("ghost", "haunts", "nobody", NodeKind::kEntity,
                        NodeKind::kEntity),
      // New class member, then give it the attribute queried by probes.
      Mutation::Upsert("dana", "type", "Person", NodeKind::kEntity,
                       NodeKind::kClass, kProv),
      Mutation::Upsert("dana", "name", "Dana D.", NodeKind::kEntity,
                       NodeKind::kText, kProv),
  };
  uint64_t version = store->version();
  for (size_t i = 0; i < script.size(); ++i) {
    ASSERT_TRUE(store->Apply(script[i]).ok());
    ApplyToKg(&oracle, script[i]);
    EXPECT_EQ(store->version(), ++version);
    ExpectMatchesRebuild(*store, oracle, "after mutation " +
                                             std::to_string(i));
    EXPECT_EQ(store->AuthoritativeFingerprint(),
              graph::TripleSetFingerprint(oracle));
  }
  EXPECT_EQ(store->applied_mutations(), script.size());
}

// Every overlay shape the epoch's id-space runs and names distinguish,
// committed one mutation per batch, one case per batch and all in one
// batch: after every commit, every answer equals a rebuild and the runs
// and names equal their definition.
TEST(VersionedStoreTest, OverlayRunCasesMatchRebuildWithinAndAcrossBatches) {
  const auto up = [](const char* s, const char* p, const char* o,
                     NodeKind ok = NodeKind::kEntity) {
    return Mutation::Upsert(s, p, o, NodeKind::kEntity, ok, kProv);
  };
  const auto rt = [](const char* s, const char* p, const char* o,
                     NodeKind ok = NodeKind::kEntity) {
    return Mutation::Retract(s, p, o, NodeKind::kEntity, ok);
  };
  const std::vector<std::vector<Mutation>> cases = {
      // A base triple retracted, then upserted back: its run entry goes.
      {rt("alice", "knows", "bob"), up("alice", "knows", "bob")},
      // An upsert the base already holds: no run entry.
      {up("bob", "knows", "carol")},
      // Retractions of triples the base lacks, with base-named and with
      // overlay-only parts: no run entry.
      {rt("carol", "knows", "alice"), rt("ghost", "haunts", "nobody")},
      // An edge to a node the base lacks: the node gets an id past the
      // base's, once, though two entries name it.
      {up("alice", "knows", "dana"), up("dana", "knows", "carol")},
      // A predicate the base lacks: it gets an id past the base's.
      {up("bob", "likes", "carol")},
      // A base class member gains attribute values: one the base names,
      // one only the overlay names.
      {up("alice", "name", "Bob B.", NodeKind::kText),
       up("alice", "name", "Alice Z.", NodeKind::kText)},
      // A retraction that stays, beside the added attribute rows.
      {rt("bob", "name", "Bob B.", NodeKind::kText)},
  };
  const std::vector<Query> probes = {
      Query::PointLookup("alice", "knows"),
      Query::PointLookup("alice", "name"),
      Query::PointLookup("bob", "likes"),
      Query::Neighborhood("alice"),
      Query::Neighborhood("bob"),
      Query::Neighborhood("carol"),
      Query::Neighborhood("dana"),
      Query::Neighborhood("Bob B.", NodeKind::kText),
      Query::AttributeByType("Person", "name"),
      Query::AttributeByType("Person", "knows"),
      Query::AttributeByType("Person", "likes"),
      Query::TopKRelated("alice", 5),
      Query::TopKRelated("carol", 5),
      Query::TopKRelated("dana", 5),
  };
  std::vector<std::vector<Mutation>> one_by_one, by_case, all_at_once(1);
  for (const std::vector<Mutation>& c : cases) {
    by_case.push_back(c);
    for (const Mutation& m : c) {
      one_by_one.push_back({m});
      all_at_once[0].push_back(m);
    }
  }
  for (const auto* batches : {&one_by_one, &by_case, &all_at_once}) {
    auto store = MustOpen(BaseKg());
    KnowledgeGraph oracle = BaseKg();
    std::vector<Mutation> log;
    for (size_t b = 0; b < batches->size(); ++b) {
      const std::string where = std::to_string(batches->size()) +
                                " batches, after batch " + std::to_string(b);
      ASSERT_TRUE(store->ApplyBatch((*batches)[b]).ok());
      for (const Mutation& m : (*batches)[b]) {
        ApplyToKg(&oracle, m);
        log.push_back(m);
      }
      const auto epoch = store->PinEpoch();
      ASSERT_TRUE(OverlayMatchesLog(*epoch, log)) << where;
      const serve::KgSnapshot snap = serve::KgSnapshot::Compile(oracle);
      const serve::QueryEngine engine(snap);
      for (const Query& q : probes) {
        ASSERT_EQ(store->Execute(q), engine.ExecuteUncached(q))
            << where << ", query " << q.CacheKey();
      }
    }
    // The script leaves retracted base triples, added edges and names the
    // base lacks behind, so every part of the overlay was exercised.
    const auto epoch = store->PinEpoch();
    EXPECT_FALSE(epoch->overlay.out.empty());
    EXPECT_FALSE(epoch->names->nodes.empty());
    EXPECT_FALSE(epoch->names->predicates.empty());
  }
}

TEST(VersionedStoreTest, ApplyBatchIsOneVersionBump) {
  auto store = MustOpen(BaseKg());
  KnowledgeGraph oracle = BaseKg();
  std::vector<Mutation> batch = {
      Mutation::Upsert("eve", "knows", "alice", NodeKind::kEntity,
                       NodeKind::kEntity, kProv),
      Mutation::Retract("bob", "knows", "carol", NodeKind::kEntity,
                        NodeKind::kEntity),
  };
  ASSERT_TRUE(store->ApplyBatch(batch).ok());
  for (const Mutation& m : batch) ApplyToKg(&oracle, m);
  EXPECT_EQ(store->version(), 1u);
  EXPECT_EQ(store->applied_mutations(), 2u);
  ExpectMatchesRebuild(*store, oracle, "after batch");
  ASSERT_TRUE(store->ApplyBatch({}).ok());  // empty batch: no-op, no bump
  EXPECT_EQ(store->version(), 1u);
}

TEST(VersionedStoreTest, WalRecoveryIsBitIdentical) {
  TempWalPath wal("recovery");
  StoreOptions options;
  options.wal_path = wal.path;
  KnowledgeGraph oracle = BaseKg();
  uint64_t fingerprint = 0;
  {
    auto store = MustOpen(BaseKg(), options);
    const std::vector<Mutation> script = {
        Mutation::Upsert("alice", "knows", "dana", NodeKind::kEntity,
                         NodeKind::kEntity, kProv),
        Mutation::Retract("alice", "knows", "bob", NodeKind::kEntity,
                          NodeKind::kEntity),
        Mutation::Upsert("tab\there", "p", "line\nbreak", NodeKind::kText,
                         NodeKind::kText, Provenance{"\\src", 0.25, -5}),
    };
    for (const Mutation& m : script) {
      ASSERT_TRUE(store->Apply(m).ok());
      ApplyToKg(&oracle, m);
    }
    fingerprint = store->AuthoritativeFingerprint();
    // Store destroyed here: simulates a clean shutdown with no
    // compaction — every mutation lives only in the WAL.
  }
  auto reopened = MustOpen(BaseKg(), options);
  EXPECT_EQ(reopened->applied_mutations(), 3u);
  EXPECT_EQ(reopened->AuthoritativeFingerprint(), fingerprint);
  // Replayed state is already folded into the epoch base (delta empty).
  EXPECT_EQ(reopened->delta_size(), 0u);
  ExpectMatchesRebuild(*reopened, oracle, "reopened");
}

TEST(VersionedStoreTest, WalRecoverySurvivesTornTail) {
  TempWalPath wal("torn");
  StoreOptions options;
  options.wal_path = wal.path;
  KnowledgeGraph oracle = BaseKg();
  {
    auto store = MustOpen(BaseKg(), options);
    const Mutation m = Mutation::Upsert("alice", "knows", "dana",
                                        NodeKind::kEntity,
                                        NodeKind::kEntity, kProv);
    ASSERT_TRUE(store->Apply(m).ok());
    ApplyToKg(&oracle, m);
  }
  {  // Crash mid-append: garbage after the last complete record.
    std::ofstream out(wal.path, std::ios::binary | std::ios::app);
    out.write("\x13\x00\x00\x00torn", 8);
  }
  auto reopened = MustOpen(BaseKg(), options);
  EXPECT_EQ(reopened->applied_mutations(), 1u);
  ExpectMatchesRebuild(*reopened, oracle, "post-torn-tail");
  // And the store keeps accepting writes afterwards.
  const Mutation more = Mutation::Upsert("dana", "knows", "bob",
                                         NodeKind::kEntity,
                                         NodeKind::kEntity, kProv);
  ASSERT_TRUE(reopened->Apply(more).ok());
  ApplyToKg(&oracle, more);
  ExpectMatchesRebuild(*reopened, oracle, "post-recovery append");
}

TEST(VersionedStoreTest, CompactionFoldsOverlayAndMatchesBatchBuild) {
  auto store = MustOpen(BaseKg());
  KnowledgeGraph oracle = BaseKg();
  const std::vector<Mutation> script = {
      Mutation::Upsert("alice", "knows", "dana", NodeKind::kEntity,
                       NodeKind::kEntity, kProv),
      Mutation::Retract("bob", "knows", "carol", NodeKind::kEntity,
                        NodeKind::kEntity),
      Mutation::Upsert("dana", "type", "Person", NodeKind::kEntity,
                       NodeKind::kClass, kProv),
  };
  for (const Mutation& m : script) {
    ASSERT_TRUE(store->Apply(m).ok());
    ApplyToKg(&oracle, m);
  }
  EXPECT_EQ(store->delta_size(), 3u);
  const uint64_t version_before = store->version();

  const auto stats = store->Compact();
  ASSERT_TRUE(stats.ran);
  EXPECT_EQ(stats.folded, 3u);
  EXPECT_EQ(stats.version, version_before + 1);
  EXPECT_EQ(store->version(), version_before + 1);
  EXPECT_EQ(store->delta_size(), 0u);
  // The compacted base is bit-identical to compiling a from-scratch
  // batch build of the same knowledge.
  EXPECT_EQ(stats.base_fingerprint,
            serve::KgSnapshot::Compile(oracle).Fingerprint());
  ExpectMatchesRebuild(*store, oracle, "post-compaction");

  // Idempotent on an empty overlay.
  const auto again = store->Compact();
  ASSERT_TRUE(again.ran);
  EXPECT_EQ(again.folded, 0u);
  EXPECT_EQ(again.base_fingerprint, stats.base_fingerprint);
}

TEST(VersionedStoreTest, CompactionCompilesOutFullyRetractedNodeAndPredicate) {
  auto store = MustOpen(BaseKg());
  KnowledgeGraph oracle = BaseKg();
  const std::vector<Mutation> batch = {
      // Every triple of base node carol...
      Mutation::Retract("alice", "knows", "carol", NodeKind::kEntity,
                        NodeKind::kEntity),
      Mutation::Retract("bob", "knows", "carol", NodeKind::kEntity,
                        NodeKind::kEntity),
      Mutation::Retract("carol", "type", "Person", NodeKind::kEntity,
                        NodeKind::kClass),
      // ...and every triple of base predicate "name".
      Mutation::Retract("alice", "name", "Alice A.", NodeKind::kEntity,
                        NodeKind::kText),
      Mutation::Retract("bob", "name", "Bob B.", NodeKind::kEntity,
                        NodeKind::kText),
      // Every base triple of "knows" and of "Bob B." goes too, but an
      // upsert names each again, so both stay.
      Mutation::Retract("alice", "knows", "bob", NodeKind::kEntity,
                        NodeKind::kEntity),
      Mutation::Upsert("dana", "knows", "Bob B.", NodeKind::kEntity,
                       NodeKind::kText, kProv),
  };
  ASSERT_TRUE(store->ApplyBatch(batch).ok());
  for (const Mutation& m : batch) ApplyToKg(&oracle, m);

  const auto stats = store->Compact();
  ASSERT_TRUE(stats.ran);
  const auto base = store->PinEpoch()->base;
  EXPECT_EQ(base->FindNode("carol", NodeKind::kEntity), serve::kInvalidNode);
  EXPECT_EQ(base->FindPredicate("name"), serve::kInvalidNode);
  EXPECT_NE(base->FindPredicate("knows"), serve::kInvalidNode);
  EXPECT_NE(base->FindNode("Bob B.", NodeKind::kText), serve::kInvalidNode);
  EXPECT_EQ(base->Fingerprint(),
            serve::KgSnapshot::Compile(oracle).Fingerprint());
  ExpectMatchesRebuild(*store, oracle, "after compiling out carol and name");
}

TEST(VersionedStoreTest, WritesDuringAndAfterCompactionStayCorrect) {
  auto store = MustOpen(BaseKg());
  KnowledgeGraph oracle = BaseKg();
  auto apply = [&](const Mutation& m) {
    ASSERT_TRUE(store->Apply(m).ok());
    ApplyToKg(&oracle, m);
  };
  apply(Mutation::Upsert("alice", "knows", "dana", NodeKind::kEntity,
                         NodeKind::kEntity, kProv));
  ASSERT_TRUE(store->Compact().ran);
  // Mutations after the fold: retract a compacted triple, retract a base
  // triple, add a new one.
  apply(Mutation::Retract("alice", "knows", "dana", NodeKind::kEntity,
                          NodeKind::kEntity));
  apply(Mutation::Retract("alice", "knows", "bob", NodeKind::kEntity,
                          NodeKind::kEntity));
  apply(Mutation::Upsert("eve", "knows", "alice", NodeKind::kEntity,
                         NodeKind::kEntity, kProv));
  ExpectMatchesRebuild(*store, oracle, "writes after compaction");
  const auto stats = store->Compact();
  ASSERT_TRUE(stats.ran);
  EXPECT_EQ(stats.base_fingerprint,
            serve::KgSnapshot::Compile(oracle).Fingerprint());
  ExpectMatchesRebuild(*store, oracle, "second compaction");
}

TEST(VersionedStoreTest, BackgroundCompactionOnThreadPool) {
  auto store = MustOpen(BaseKg());
  KnowledgeGraph oracle = BaseKg();
  const Mutation m = Mutation::Upsert("alice", "knows", "dana",
                                      NodeKind::kEntity, NodeKind::kEntity,
                                      kProv);
  ASSERT_TRUE(store->Apply(m).ok());
  ApplyToKg(&oracle, m);
  ThreadPool pool(2);
  ASSERT_TRUE(store->CompactInBackground(pool));
  pool.WaitIdle();
  EXPECT_FALSE(store->compaction_in_flight());
  EXPECT_EQ(store->delta_size(), 0u);
  ExpectMatchesRebuild(*store, oracle, "background compaction");
}

TEST(VersionedStoreTest, ScanAnswersHitUntilACommitBumpsTheirTags) {
  StoreOptions options;
  options.cache_capacity = 64;
  auto store = MustOpen(BaseKg(), options);
  ASSERT_NE(store->cache(), nullptr);
  KnowledgeGraph oracle = BaseKg();
  const auto apply = [&](const Mutation& m) {
    ASSERT_TRUE(store->Apply(m).ok());
    ApplyToKg(&oracle, m);
  };
  const Query names = Query::AttributeByType("Person", "name");
  const Query related = Query::TopKRelated("alice", 5);
  EXPECT_FALSE(ServedFromCache(*store, names));
  EXPECT_FALSE(ServedFromCache(*store, related));
  EXPECT_TRUE(ServedFromCache(*store, names));
  EXPECT_TRUE(ServedFromCache(*store, related));

  // A write to another predicate, away from alice, retires neither
  // answer; nor does a fold, which changes no answer.
  apply(Mutation::Upsert("dana", "likes", "jazz", NodeKind::kEntity,
                         NodeKind::kText, kProv));
  EXPECT_TRUE(ServedFromCache(*store, names));
  EXPECT_TRUE(ServedFromCache(*store, related));
  ExpectMatchesRebuild(*store, oracle, "unrelated write");
  ASSERT_TRUE(store->Compact().ran);
  EXPECT_TRUE(ServedFromCache(*store, names));
  EXPECT_TRUE(ServedFromCache(*store, related));
  ExpectMatchesRebuild(*store, oracle, "fold");

  // A write to the attribute predicate retires the attribute answer.
  apply(Mutation::Upsert("dana", "name", "Dana D.", NodeKind::kEntity,
                         NodeKind::kText, kProv));
  EXPECT_FALSE(ServedFromCache(*store, names));
  ExpectMatchesRebuild(*store, oracle, "attribute write");
  // So does one to the type predicate alone: typing the named dana adds
  // her row.
  apply(Mutation::Upsert("dana", "type", "Person", NodeKind::kEntity,
                         NodeKind::kClass, kProv));
  EXPECT_FALSE(ServedFromCache(*store, names));
  ExpectMatchesRebuild(*store, oracle, "type write");

  // The rebuild check above cached alice's top-k under its current tag.
  // carol–erin is two hops from alice: only the entity rule's N(s) bump
  // (o is an entity, so every neighbor of carol) retires that answer,
  // which now counts erin.
  EXPECT_TRUE(ServedFromCache(*store, related));
  apply(Mutation::Upsert("carol", "knows", "erin", NodeKind::kEntity,
                         NodeKind::kEntity, kProv));
  EXPECT_FALSE(ServedFromCache(*store, related));
  EXPECT_TRUE(ServedFromCache(*store, names));
  ExpectMatchesRebuild(*store, oracle, "two-hop write");

  // Point lookups and neighborhoods read the epoch, never the cache.
  const auto before = store->cache()->counters();
  const size_t entries = store->cache()->size();
  for (const Query& q : ProbeQueries()) {
    if (q.kind == serve::QueryKind::kPointLookup ||
        q.kind == serve::QueryKind::kNeighborhood) {
      (void)store->Execute(q);
    }
  }
  const auto after = store->cache()->counters();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(store->cache()->size(), entries);
}

TEST(VersionedStoreTest, BatchExecuteIsThreadCountInvariant) {
  auto store = MustOpen(BaseKg());
  ASSERT_TRUE(store
                  ->Apply(Mutation::Upsert("alice", "knows", "dana",
                                           NodeKind::kEntity,
                                           NodeKind::kEntity, kProv))
                  .ok());
  const std::vector<Query> workload = ProbeQueries();
  const auto serial = ExecuteBatch(*store, workload, ExecPolicy::Serial());
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(ExecuteBatch(*store, workload, ExecPolicy::WithThreads(threads)),
              serial)
        << threads << " threads";
  }
  // And each slot equals the single-query path.
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(serial[i], store->Execute(workload[i])) << "slot " << i;
  }
}

#ifndef KG_OBS_NOOP
TEST(VersionedStoreTest, WriteStagesObservedOncePerAppliedBatch) {
  // A registry alone times the write path: overlay_merge once per
  // applied batch, wal_append once per batch that has a WAL to append
  // to. An empty batch applies nothing and observes nothing.
  const std::vector<Mutation> pair = {
      Mutation::Upsert("bob", "knows", "dana", NodeKind::kEntity,
                       NodeKind::kEntity, kProv),
      Mutation::Retract("alice", "knows", "carol", NodeKind::kEntity,
                        NodeKind::kEntity)};
  for (const bool with_wal : {false, true}) {
    TempWalPath wal("stages");
    obs::MetricsRegistry registry;
    StoreOptions options;
    if (with_wal) options.wal_path = wal.path;
    options.registry = &registry;
    auto store = MustOpen(BaseKg(), options);
    ASSERT_TRUE(store
                    ->Apply(Mutation::Upsert("alice", "knows", "dana",
                                             NodeKind::kEntity,
                                             NodeKind::kEntity, kProv))
                    .ok());
    ASSERT_TRUE(store->ApplyBatch(pair).ok());
    ASSERT_TRUE(store->ApplyBatch({}).ok());
    EXPECT_EQ(
        obs::StageHistogram(registry, obs::Stage::kOverlayMerge).Count(), 2u)
        << "wal=" << with_wal;
    EXPECT_EQ(obs::StageHistogram(registry, obs::Stage::kWalAppend).Count(),
              with_wal ? 2u : 0u)
        << "wal=" << with_wal;
  }
}

TEST(VersionedStoreTest, CacheProbeStageObservedPerCachedReadOnlyWhenTimed) {
  const std::vector<Query> reads = {
      Query::PointLookup("alice", "knows"),  // never cached
      Query::PointLookup("alice", "knows"),
      Query::Neighborhood("alice"),              // never cached
      Query::AttributeByType("Person", "name"),  // miss
      Query::AttributeByType("Person", "name"),  // hit
      Query::AttributeByType("Person", "knows"),
      Query::TopKRelated("alice", 5),
  };
  const uint64_t per_class[serve::kNumQueryKinds] = {0, 0, 3, 1};
  for (const bool time_stages : {false, true}) {
    obs::MetricsRegistry registry;
    StoreOptions options;
    options.cache_capacity = 64;
    options.registry = &registry;
    options.time_stages = time_stages;
    auto store = MustOpen(BaseKg(), options);
    for (const Query& q : reads) (void)store->Execute(q);
    for (size_t k = 0; k < serve::kNumQueryKinds; ++k) {
      const char* name = serve::QueryKindName(static_cast<serve::QueryKind>(k));
      EXPECT_EQ(obs::StageHistogram(registry, obs::Stage::kCacheProbe, name)
                    .Count(),
                time_stages ? per_class[k] : 0u)
          << name << " time_stages=" << time_stages;
    }
  }
}
#endif  // KG_OBS_NOOP

}  // namespace
}  // namespace kg::store
