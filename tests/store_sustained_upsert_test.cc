// Sustained-upsert regression: a realistic ingest mutation stream is
// applied in batches across >= 3 full compaction cycles while a
// background reader loops all four query classes against the live
// store. At every checkpoint (including mid-stream, right after each
// compaction) the store's answers must equal a QueryEngine over a
// from-scratch rebuild of the same prefix — compaction must never
// change an answer, and long-running upsert streams must not decay the
// read path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "ingest/crawl.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "synth/entity_universe.h"

namespace kg::store {
namespace {

using graph::KnowledgeGraph;
using graph::TripleSetFingerprint;
using serve::Query;

std::vector<Query> FourClassProbes() {
  std::vector<Query> probes;
  for (uint32_t id = 0; id < 6; ++id) {
    const std::string person = synth::EntityUniverse::PersonNodeName(id);
    const std::string movie = synth::EntityUniverse::MovieNodeName(id);
    probes.push_back(Query::PointLookup(person, "name"));
    probes.push_back(Query::PointLookup(movie, "release_year"));
    probes.push_back(Query::Neighborhood(person));
    probes.push_back(Query::TopKRelated(movie, 5));
  }
  probes.push_back(Query::AttributeByType("Movie", "release_year"));
  probes.push_back(Query::AttributeByType("Person", "birth_year"));
  probes.push_back(Query::AttributeByType("Song", "song_genre"));
  return probes;
}

TEST(StoreSustainedUpsertTest, CompactionCyclesNeverChangeAnswers) {
  synth::UniverseOptions uo;
  uo.num_people = 70;
  uo.num_movies = 35;
  uo.num_songs = 25;
  Rng rng(91);
  const auto universe = synth::EntityUniverse::Generate(uo, rng);
  const KnowledgeGraph base = universe.ToKnowledgeGraph();

  // The upsert stream: crawl-unit mutations, in plan order (the same
  // stream the ingest pipeline would commit).
  ingest::CrawlPlanOptions po;
  po.num_catalog_sources = 4;
  po.records_per_chunk = 10;
  po.num_websites = 3;
  po.pages_per_site = 8;
  const ingest::CrawlPlan plan =
      ingest::BuildCrawlPlan(universe, po, rng);
  const ingest::SurfaceLinker linker(base);
  const ingest::UnitContext ctx;
  std::vector<Mutation> stream;
  for (const ingest::CrawlUnit& unit : plan.units) {
    auto result = ingest::ProcessUnit(plan, unit, linker, ctx);
    for (Mutation& m : result.mutations) stream.push_back(std::move(m));
  }
  ASSERT_GT(stream.size(), 200u);

  StoreOptions store_options;
  store_options.cache_capacity = 128;
  auto opened = VersionedKgStore::Open(base, store_options);
  ASSERT_TRUE(opened.ok());
  VersionedKgStore& store = **opened;
  const std::vector<Query> probes = FourClassProbes();

  // Background reader: loops the four query classes against whatever
  // epoch is current, across every batch and compaction below. When no
  // commit or fold lands around an Execute, its answer must be the
  // pinned epoch's.
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> disagreements{0};
  std::thread reader([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const Query& q = probes[(i + 1) % probes.size()];
      const auto before = store.PinEpoch();
      (void)store.ExecuteAt(*before, probes[i % probes.size()]);
      const serve::QueryResult rows = store.Execute(q);
      const auto after = store.PinEpoch();
      if (before->version == after->version &&
          rows != store.ExecuteAt(*before, q)) {
        disagreements.fetch_add(1);
      }
      ++i;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Oracle check: store answers at the current prefix == engine over a
  // from-scratch rebuild of the same prefix.
  KnowledgeGraph mirror = base;
  size_t applied = 0;
  auto check_against_rebuild = [&](const std::string& where) {
    ASSERT_EQ(store.AuthoritativeFingerprint(),
              TripleSetFingerprint(mirror))
        << where;
    const serve::KgSnapshot snapshot = serve::KgSnapshot::Compile(mirror);
    const serve::QueryEngine engine(snapshot);
    for (const Query& q : probes) {
      ASSERT_EQ(store.Execute(q), engine.Execute(q)) << where;
    }
  };

  constexpr size_t kBatch = 40;
  constexpr int kCompactions = 4;  // >= 3 full cycles.
  int compactions_done = 0;
  const size_t per_cycle = stream.size() / kCompactions + 1;
  size_t next_compact_at = per_cycle;

  while (applied < stream.size()) {
    const size_t n = std::min(kBatch, stream.size() - applied);
    const std::span<const Mutation> batch(stream.data() + applied, n);
    ASSERT_TRUE(store.ApplyBatch(batch).ok());
    for (const Mutation& m : batch) {
      ingest::ApplyMutationToKg(mirror, m);
    }
    applied += n;

    if (applied >= next_compact_at || applied == stream.size()) {
      check_against_rebuild("pre-compaction @" + std::to_string(applied));
      const auto stats = store.Compact();
      ASSERT_TRUE(stats.ran);
      // The installed base must be the batch-build snapshot of the same
      // knowledge (snapshot fingerprints are canonical-form).
      EXPECT_EQ(stats.base_fingerprint,
                serve::KgSnapshot::Compile(mirror).Fingerprint());
      ++compactions_done;
      next_compact_at += per_cycle;
      check_against_rebuild("post-compaction @" + std::to_string(applied));
      EXPECT_EQ(store.delta_size(), 0u)
          << "a foreground fold with no concurrent writer folds all";
    }
  }

  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GE(compactions_done, 3) << "the regression needs >= 3 cycles";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(disagreements.load(), 0u);
  EXPECT_EQ(store.applied_mutations(), stream.size());
  check_against_rebuild("final");
}

}  // namespace
}  // namespace kg::store
