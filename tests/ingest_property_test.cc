// Property harness for streaming ingest — the determinism contract the
// whole subsystem rests on. For seeded random (universe, crawl plan)
// worlds crossed with chaos rates {0, 10%, 25%}:
//   1. a drained pipeline's store fingerprint is bit-identical at 1, 2,
//      and 8 workers, and equals the serial OfflineRebuild oracle;
//   2. committed mutation counts equal the oracle's (zero lost upserts
//      — nothing inside the pipeline is ever dropped);
//   3. degradation reports are identical across worker counts;
//   4. a reader querying the live store *during* ingest (the TSan
//      target) only ever sees consistent epochs, and its final answers
//      equal a QueryEngine over the from-scratch rebuild.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "ingest/crawl.h"
#include "ingest/pipeline.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "synth/entity_universe.h"

namespace kg::ingest {
namespace {

using graph::KnowledgeGraph;
using graph::TripleSetFingerprint;
using serve::Query;
using store::StoreOptions;
using store::VersionedKgStore;

constexpr int kNumWorlds = 8;
const double kChaosRates[] = {0.0, 0.10, 0.25};
const size_t kWorkerCounts[] = {1, 2, 8};

struct World {
  synth::EntityUniverse universe;
  KnowledgeGraph base;
  CrawlPlan plan;
};

World MakeWorld(uint64_t seed) {
  synth::UniverseOptions uo;
  uo.num_people = 60;
  uo.num_movies = 30;
  uo.num_songs = 20;
  Rng rng(seed);
  World w{synth::EntityUniverse::Generate(uo, rng), {}, {}};
  w.base = w.universe.ToKnowledgeGraph();
  CrawlPlanOptions po;
  po.num_catalog_sources = 3;
  po.records_per_chunk = 8;
  po.num_websites = 2;
  po.pages_per_site = 8;
  w.plan = BuildCrawlPlan(w.universe, po, rng);
  return w;
}

/// A probe set spanning all four query classes.
std::vector<Query> ProbeQueries() {
  std::vector<Query> probes;
  for (uint32_t id = 0; id < 5; ++id) {
    const std::string person = synth::EntityUniverse::PersonNodeName(id);
    probes.push_back(Query::PointLookup(person, "name"));
    probes.push_back(Query::Neighborhood(person));
  }
  probes.push_back(Query::AttributeByType("Movie", "release_year"));
  probes.push_back(Query::AttributeByType("Person", "nationality"));
  probes.push_back(
      Query::TopKRelated(synth::EntityUniverse::PersonNodeName(0), 5));
  return probes;
}

TEST(IngestPropertyTest, WorkerCountInvarianceUnderChaos) {
  for (int world_i = 0; world_i < kNumWorlds; ++world_i) {
    const uint64_t seed = 1000 + world_i;
    const World w = MakeWorld(seed);
    const SurfaceLinker linker(w.base);

    for (double rate : kChaosRates) {
      IngestOptions base_options;
      base_options.seed = seed;
      if (rate > 0.0) {
        base_options.faults = FaultPlan::Uniform(seed, rate);
      }

      // Serial oracle under the identical chaos plan.
      UnitContext ctx;
      FaultInjector injector(base_options.faults);
      if (base_options.faults.active()) ctx.faults = &injector;
      ctx.retry = base_options.retry;
      ctx.seed = base_options.seed;
      DegradationReport oracle_degradation;
      uint64_t oracle_mutations = 0;
      const KnowledgeGraph rebuilt =
          OfflineRebuild(w.plan, w.base, linker, ctx, &oracle_degradation,
                         &oracle_mutations);
      const uint64_t oracle_fp = TripleSetFingerprint(rebuilt);

      for (size_t workers : kWorkerCounts) {
        auto store = VersionedKgStore::Open(w.base, StoreOptions{});
        ASSERT_TRUE(store.ok());
        IngestOptions options = base_options;
        options.num_workers = workers;
        options.queue_capacity = 8;
        options.commit_unit_batch = 3;
        IngestPipeline pipeline(**store, linker, w.plan, options);
        const IngestReport report = pipeline.RunAll();

        SCOPED_TRACE("world " + std::to_string(seed) + " chaos " +
                     std::to_string(rate) + " workers " +
                     std::to_string(workers));
        EXPECT_EQ(report.units_processed, w.plan.num_units());
        EXPECT_EQ(report.mutations_committed, oracle_mutations)
            << "zero lost upserts";
        EXPECT_EQ((*store)->applied_mutations(), oracle_mutations);
        EXPECT_EQ((*store)->AuthoritativeFingerprint(), oracle_fp)
            << "store content must be a pure function of (plan, seed)";
        ASSERT_EQ(report.degradation.sources.size(),
                  oracle_degradation.sources.size());
        for (size_t i = 0; i < oracle_degradation.sources.size(); ++i) {
          EXPECT_EQ(report.degradation.sources[i].source,
                    oracle_degradation.sources[i].source);
          EXPECT_EQ(report.degradation.sources[i].records_dropped,
                    oracle_degradation.sources[i].records_dropped);
        }
      }
    }
  }
}

TEST(IngestPropertyTest, ConcurrentReaderSeesConsistentEpochs) {
  // Readers hammer the live store across all four query classes while
  // the pipeline ingests under chaos. Every answer must come from a
  // consistent epoch (this is the suite TSan runs), and once drained the
  // store must answer exactly like an engine over the offline rebuild.
  for (uint64_t seed : {uint64_t{42}, uint64_t{43}}) {
    const World w = MakeWorld(seed);
    const SurfaceLinker linker(w.base);
    const std::vector<Query> probes = ProbeQueries();

    StoreOptions store_options;
    store_options.cache_capacity = 256;
    auto store = VersionedKgStore::Open(w.base, store_options);
    ASSERT_TRUE(store.ok());

    IngestOptions options;
    options.num_workers = 4;
    options.queue_capacity = 4;
    options.seed = seed;
    options.faults = FaultPlan::Uniform(seed, 0.10);
    IngestPipeline pipeline(**store, linker, w.plan, options);

    std::atomic<bool> stop{false};
    std::atomic<size_t> reads{0};
    std::atomic<size_t> disagreements{0};
    std::thread reader([&] {
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Execute (cached, current epoch) and ExecuteAt (pinned) must
        // agree within one pinned epoch: when no commit lands around the
        // Execute, its answer is the pinned epoch's.
        const Query& q = probes[i++ % probes.size()];
        const auto before = (*store)->PinEpoch();
        const auto pinned = (*store)->ExecuteAt(*before, q);
        const auto rows = (*store)->Execute(q);
        const auto after = (*store)->PinEpoch();
        if (before->version == after->version && rows != pinned) {
          disagreements.fetch_add(1);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });

    const IngestReport report = pipeline.RunAll();
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(disagreements.load(), 0u);
    EXPECT_EQ(report.units_processed, w.plan.num_units());

    // Post-drain answers match a from-scratch rebuild exactly.
    UnitContext ctx;
    FaultInjector injector(options.faults);
    ctx.faults = &injector;
    ctx.retry = options.retry;
    ctx.seed = options.seed;
    const KnowledgeGraph rebuilt =
        OfflineRebuild(w.plan, w.base, linker, ctx);
    const serve::KgSnapshot snapshot = serve::KgSnapshot::Compile(rebuilt);
    const serve::QueryEngine engine(snapshot);
    for (const Query& q : probes) {
      EXPECT_EQ((*store)->Execute(q), engine.Execute(q));
    }
  }
}

}  // namespace
}  // namespace kg::ingest
