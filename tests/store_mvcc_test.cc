// MVCC epoch semantics: pinned epochs are frozen, consistent views that
// survive concurrent writes and compactions; a seeded single-threaded
// schedule of applies/reads/pins/compactions is replayable bit-for-bit;
// and under real threads (run this under KG_SANITIZE=thread), every
// reader observes some exact published version — never a torn mix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "store/wal.h"
#include "store_overlay_oracle.h"

namespace kg::store {

/// Runs Compact()'s two steps with `between` in the gap, where a write
/// lands after the fold's pin and before its install.
class CompactionSteps {
 public:
  template <typename Between>
  static VersionedKgStore::CompactionStats CompactAround(
      VersionedKgStore& store, const Between& between) {
    auto fold = store.PinAndFold();
    if (!fold) return {};
    between();
    return store.InstallFold(std::move(*fold));
  }
};

namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Provenance;
using serve::Query;
using serve::QueryResult;

const Provenance kProv{"mvcc_test", 1.0, 2};

KnowledgeGraph BaseKg() {
  KnowledgeGraph kg;
  for (int i = 0; i < 8; ++i) {
    const std::string person = "person" + std::to_string(i);
    kg.AddTriple(person, "knows", "person" + std::to_string((i + 1) % 8),
                 NodeKind::kEntity, NodeKind::kEntity, kProv);
    kg.AddTriple(person, "type", "Person", NodeKind::kEntity,
                 NodeKind::kClass, kProv);
  }
  return kg;
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
  const graph::TripleId id = kg->FindTriple(*s, *p, *o);
  if (id != graph::kInvalidTriple) kg->RemoveTriple(id);
}

std::vector<Query> ProbeQueries() {
  return {
      Query::PointLookup("person0", "knows"),
      Query::Neighborhood("person1"),
      Query::AttributeByType("Person", "knows"),
      Query::TopKRelated("person0", 4),
  };
}

/// A deterministic mutation stream: mutation i is a pure function of i.
Mutation ScriptedMutation(size_t i) {
  const std::string a = "person" + std::to_string(i % 8);
  const std::string b = "person" + std::to_string((i * 3 + 1) % 8);
  switch (i % 4) {
    case 0:
      return Mutation::Upsert(a, "mentors", b, NodeKind::kEntity,
                              NodeKind::kEntity, kProv);
    case 1:
      return Mutation::Retract(a, "knows", b, NodeKind::kEntity,
                               NodeKind::kEntity);
    case 2:
      return Mutation::Upsert("extra" + std::to_string(i), "knows", a,
                              NodeKind::kEntity, NodeKind::kEntity, kProv);
    default:
      return Mutation::Retract(a, "mentors", b, NodeKind::kEntity,
                               NodeKind::kEntity);
  }
}

TEST(MvccTest, PinnedEpochIsFrozenWhileWritesProceed) {
  auto opened = VersionedKgStore::Open(BaseKg());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& store = **opened;

  const auto pinned = store.PinEpoch();
  ASSERT_EQ(pinned->version, 0u);
  std::vector<QueryResult> before;
  for (const Query& q : ProbeQueries()) {
    before.push_back(store.ExecuteAt(*pinned, q));
  }

  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(store.Apply(ScriptedMutation(i)).ok());
  }
  ASSERT_EQ(store.version(), 12u);

  // The pinned view answers exactly as it did before any write.
  const auto probes = ProbeQueries();
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(store.ExecuteAt(*pinned, probes[i]), before[i])
        << "probe " << i;
  }
  EXPECT_EQ(pinned->version, 0u);
  // And the current view has moved on: at least one probe changed.
  bool any_changed = false;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (store.Execute(probes[i]) != before[i]) any_changed = true;
  }
  EXPECT_TRUE(any_changed);
}

TEST(MvccTest, PinnedEpochSurvivesCompactionAndCompactionChangesNoAnswer) {
  auto opened = VersionedKgStore::Open(BaseKg());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& store = **opened;
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Apply(ScriptedMutation(i)).ok());
  }
  const auto pinned = store.PinEpoch();
  std::vector<QueryResult> pinned_before, current_before;
  for (const Query& q : ProbeQueries()) {
    pinned_before.push_back(store.ExecuteAt(*pinned, q));
    current_before.push_back(store.Execute(q));
  }

  ASSERT_TRUE(store.Compact().ran);
  EXPECT_EQ(store.delta_size(), 0u);

  const auto probes = ProbeQueries();
  for (size_t i = 0; i < probes.size(); ++i) {
    // The old epoch still merges its (now-stale) base + delta correctly...
    EXPECT_EQ(store.ExecuteAt(*pinned, probes[i]), pinned_before[i]);
    // ...and compaction changed no current answer, only representation.
    EXPECT_EQ(store.Execute(probes[i]), current_before[i]);
  }
}

// The determinism requirement on schedules: interleaving applies, reads,
// epoch pins, and compactions under a seed, the full observable
// transcript (versions, answers, fingerprints) replays identically.
std::vector<std::string> RunSchedule(uint64_t seed) {
  std::vector<std::string> transcript;
  auto opened = VersionedKgStore::Open(BaseKg());
  EXPECT_TRUE(opened.ok());
  auto& store = **opened;
  Rng rng(seed);
  const auto probes = ProbeQueries();
  std::vector<std::shared_ptr<const StoreEpoch>> pins;
  size_t next_mutation = 0;
  for (int step = 0; step < 120; ++step) {
    const double roll = rng.UniformDouble();
    if (roll < 0.45) {
      store.Apply(ScriptedMutation(next_mutation++));
      transcript.push_back("apply v" + std::to_string(store.version()));
    } else if (roll < 0.75) {
      const Query& q = probes[rng.UniformIndex(probes.size())];
      const QueryResult rows = store.Execute(q);
      std::string line = "read " + q.CacheKey() + " ->";
      for (const std::string& r : rows) line += " [" + r + "]";
      transcript.push_back(std::move(line));
    } else if (roll < 0.85) {
      pins.push_back(store.PinEpoch());
      transcript.push_back("pin v" + std::to_string(pins.back()->version));
    } else if (roll < 0.95 && !pins.empty()) {
      const auto& epoch = pins[rng.UniformIndex(pins.size())];
      const Query& q = probes[rng.UniformIndex(probes.size())];
      const QueryResult rows = store.ExecuteAt(*epoch, q);
      transcript.push_back("time-travel v" + std::to_string(epoch->version) +
                           " rows=" + std::to_string(rows.size()));
    } else {
      const auto stats = store.Compact();
      transcript.push_back("compact folded=" + std::to_string(stats.folded) +
                           " fp=" + std::to_string(stats.base_fingerprint));
    }
  }
  transcript.push_back("final fp=" +
                       std::to_string(store.AuthoritativeFingerprint()));
  return transcript;
}

TEST(MvccTest, SeededSchedulesReplayIdentically) {
  for (uint64_t seed : {1u, 7u, 42u, 1337u}) {
    const auto first = RunSchedule(seed);
    const auto second = RunSchedule(seed);
    ASSERT_EQ(first, second) << "seed " << seed;
  }
}

// Readers race a writer. Every pinned epoch's version tells exactly which
// prefix of the mutation script it must reflect — answers are compared
// against per-version references computed up front. Writers never block
// readers, so readers make progress throughout; run under
// KG_SANITIZE=thread to certify the epoch swap.
TEST(MvccTest, ConcurrentReadersAlwaysSeeAnExactPublishedVersion) {
  constexpr size_t kMutations = 24;
  constexpr size_t kReaders = 4;

  // Reference answers for every version 0..kMutations.
  const auto probes = ProbeQueries();
  std::vector<std::vector<QueryResult>> reference(kMutations + 1);
  {
    KnowledgeGraph oracle = BaseKg();
    for (size_t v = 0; v <= kMutations; ++v) {
      if (v > 0) ApplyToKg(&oracle, ScriptedMutation(v - 1));
      const serve::KgSnapshot snap = serve::KgSnapshot::Compile(oracle);
      const serve::QueryEngine engine(snap);
      for (const Query& q : probes) {
        reference[v].push_back(engine.ExecuteUncached(q));
      }
    }
  }

  auto opened = VersionedKgStore::Open(BaseKg());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& store = **opened;

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(900 + r);
      uint64_t last_version = 0;
      while (!writer_done.load(std::memory_order_acquire) ||
             reads.load(std::memory_order_relaxed) < 200) {
        const auto epoch = store.PinEpoch();
        if (epoch->version < last_version) {
          mismatches.fetch_add(1);  // versions must be monotone per reader
        }
        last_version = epoch->version;
        const size_t qi = rng.UniformIndex(probes.size());
        const QueryResult rows = store.ExecuteAt(*epoch, probes[qi]);
        if (rows != reference[epoch->version][qi]) mismatches.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (reads.load(std::memory_order_relaxed) > 20000) break;
      }
    });
  }

  for (size_t i = 0; i < kMutations; ++i) {
    ASSERT_TRUE(store.Apply(ScriptedMutation(i)).ok());
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(store.version(), kMutations);
  EXPECT_GE(reads.load(), 200u * 1);
}

// A cached scan answer is never older than the read that returns it: it
// must equal the reference at some version published between version()
// before and after the call. A commit that bumped its generation tags
// after publishing its epoch would let a read that already saw the new
// version hit the answer cached under the old tag. The writer is paced
// by the readers' progress, so the answers are cached when each commit
// lands.
TEST(MvccTest, CachedScanAnswersAreNeverOlderThanTheRead) {
  constexpr size_t kMembers = 300;
  constexpr size_t kCommits = 24;
  constexpr size_t kReadsPerCommit = 8;
  const auto member = [](const std::string& prefix, size_t i) {
    std::string name = std::to_string(i);
    return prefix + std::string(3 - name.size(), '0') + name;
  };
  // Commit c adds one typed, named member, which changes both answers.
  const auto commit = [&](size_t c) {
    const std::string m = member("new", c);
    return std::vector<Mutation>{
        Mutation::Upsert(m, "type", "Person", NodeKind::kEntity,
                         NodeKind::kClass, kProv),
        Mutation::Upsert(m, "name", "Name " + m, NodeKind::kEntity,
                         NodeKind::kText, kProv)};
  };
  KnowledgeGraph base;
  for (size_t i = 0; i < kMembers; ++i) {
    const std::string m = member("m", i);
    base.AddTriple(m, "type", "Person", NodeKind::kEntity, NodeKind::kClass,
                   kProv);
    base.AddTriple(m, "name", "Name " + m, NodeKind::kEntity,
                   NodeKind::kText, kProv);
  }
  const std::vector<Query> probes = {
      Query::AttributeByType("Person", "name"),
      Query::TopKRelated(member("m", 0), kMembers + kCommits)};
  std::vector<std::vector<QueryResult>> reference(kCommits + 1);
  {
    KnowledgeGraph oracle = base;
    for (size_t v = 0; v <= kCommits; ++v) {
      if (v > 0) {
        for (const Mutation& m : commit(v - 1)) ApplyToKg(&oracle, m);
      }
      const serve::KgSnapshot snap = serve::KgSnapshot::Compile(oracle);
      const serve::QueryEngine engine(snap);
      for (const Query& q : probes) {
        reference[v].push_back(engine.ExecuteUncached(q));
      }
    }
  }

  StoreOptions options;
  options.cache_capacity = 16;  // Two entries per shard: both probes fit.
  auto opened = VersionedKgStore::Open(base, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& store = **opened;

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> older{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = r; !writer_done.load(std::memory_order_acquire); ++i) {
        const size_t qi = i % probes.size();
        const uint64_t first = store.version();
        const QueryResult rows = store.Execute(probes[qi]);
        const uint64_t last = store.version();
        bool current = false;
        for (uint64_t v = first; v <= last && !current; ++v) {
          current = rows == reference[v][qi];
        }
        if (!current) older.fetch_add(1);
        reads.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (size_t c = 0; c < kCommits; ++c) {
    const size_t due = reads.load(std::memory_order_acquire) + kReadsPerCommit;
    while (reads.load(std::memory_order_acquire) < due) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(store.ApplyBatch(commit(c)).ok());
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(older.load(), 0u);
  EXPECT_EQ(store.version(), kCommits);
}

// A write that lands while a fold runs survives it in the trimmed delta,
// and the installed epoch must resolve that entry's nodes against the
// new base, whose ids the fold shifted. The write lands between the
// fold's pin and its install.
TEST(MvccTest, WriteDuringFoldIsResolvedAgainstTheNewBase) {
  const KnowledgeGraph base = BaseKg();
  auto opened = VersionedKgStore::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& store = **opened;
  KnowledgeGraph oracle = base;
  // A new node that sorts before every person, so the fold renumbers
  // the nodes the late write names.
  const Mutation shift = Mutation::Upsert("new0", "knows", "person0",
                                          NodeKind::kEntity,
                                          NodeKind::kEntity, kProv);
  ASSERT_TRUE(store.Apply(shift).ok());
  ApplyToKg(&oracle, shift);
  bool fold_running = false;
  const auto stats = CompactionSteps::CompactAround(store, [&] {
    fold_running = store.compaction_in_flight();
    const Mutation late = ScriptedMutation(0);
    ASSERT_TRUE(store.Apply(late).ok());
    ApplyToKg(&oracle, late);
  });
  ASSERT_TRUE(stats.ran);
  // Not folded, so it landed after the pin.
  ASSERT_TRUE(fold_running && store.delta_size() > 0)
      << "the late write did not land during the fold";
  const auto epoch = store.PinEpoch();
  EXPECT_TRUE(epoch->overlay == RecomputedOverlay(*epoch));
  const serve::KgSnapshot rebuilt = serve::KgSnapshot::Compile(oracle);
  const serve::QueryEngine engine(rebuilt);
  for (const Query& q : ProbeQueries()) {
    EXPECT_EQ(store.ExecuteAt(*epoch, q), engine.ExecuteUncached(q))
        << q.CacheKey();
  }
}

// Full interleaving: writer, readers, and a background compactor all
// racing. With compactions in the version stream, per-version content
// references are no longer enumerable up front, so readers check the
// frozen-view invariant instead: a pinned epoch answers identically when
// asked twice. They also check every pinned epoch's overlay runs against
// its (base, delta) — a write that lands during a fold leaves a
// non-empty trimmed delta the fold must re-resolve against the new base.
// The final state must still equal the oracle.
TEST(MvccTest, WriterReadersAndCompactorRaceSafely) {
  constexpr size_t kMutations = 30;
  auto opened = VersionedKgStore::Open(BaseKg());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& store = **opened;
  const auto probes = ProbeQueries();

  std::atomic<bool> done{false};
  std::atomic<size_t> violations{0};
  ThreadPool compactor_pool(1);

  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(7100 + r);
      while (!done.load(std::memory_order_acquire)) {
        const auto epoch = store.PinEpoch();
        const Query& q = probes[rng.UniformIndex(probes.size())];
        if (store.ExecuteAt(*epoch, q) != store.ExecuteAt(*epoch, q) ||
            !(epoch->overlay == RecomputedOverlay(*epoch))) {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::thread compactor([&] {
    while (!done.load(std::memory_order_acquire)) {
      store.CompactInBackground(compactor_pool);
      std::this_thread::yield();
    }
  });

  KnowledgeGraph oracle = BaseKg();
  for (size_t i = 0; i < kMutations; ++i) {
    ASSERT_TRUE(store.Apply(ScriptedMutation(i)).ok());
    ApplyToKg(&oracle, ScriptedMutation(i));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  compactor.join();
  compactor_pool.WaitIdle();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(store.AuthoritativeFingerprint(),
            graph::TripleSetFingerprint(oracle));
  // After one final fold, the base holds everything and still matches a
  // from-scratch batch build.
  const auto stats = store.Compact();
  ASSERT_TRUE(stats.ran);
  EXPECT_EQ(stats.base_fingerprint,
            serve::KgSnapshot::Compile(oracle).Fingerprint());
  const auto final_epoch = store.PinEpoch();
  const serve::QueryEngine engine_ref(*final_epoch->base);
  for (const Query& q : probes) {
    EXPECT_EQ(store.Execute(q), engine_ref.ExecuteUncached(q));
  }
}

}  // namespace
}  // namespace kg::store
