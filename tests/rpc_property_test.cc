// Property harness for the RPC front-end: for seeded random (KG,
// workload) pairs, every answer served over the loopback wire must be
// byte-identical to the in-process QueryEngine answer — with and
// without the result cache behind the server, and with hostile node
// names (embedded NULs, newlines, UTF-8) crossing the wire both ways.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "synth/entity_universe.h"

namespace kg::rpc {
namespace {

using graph::NodeKind;

constexpr int kNumWorlds = 100;
constexpr int kQueriesPerWorld = 30;

struct World {
  graph::KnowledgeGraph kg;
  std::vector<std::string> entity_names;
  std::vector<std::string> predicates;
};

World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  synth::UniverseOptions options;
  options.num_people = static_cast<size_t>(rng.UniformInt(10, 30));
  options.num_movies = static_cast<size_t>(rng.UniformInt(8, 20));
  options.num_songs = static_cast<size_t>(rng.UniformInt(4, 12));
  const auto universe = synth::EntityUniverse::Generate(options, rng);

  World world;
  world.kg = universe.ToKnowledgeGraph();
  const graph::Provenance prov{"rpc_property", 1.0, 0};
  for (const auto& p : universe.people()) {
    world.kg.AddTriple(synth::EntityUniverse::PersonNodeName(p.id), "type",
                       "Person", NodeKind::kEntity, NodeKind::kClass, prov);
    world.entity_names.push_back(
        synth::EntityUniverse::PersonNodeName(p.id));
  }
  for (const auto& m : universe.movies()) {
    world.kg.AddTriple(synth::EntityUniverse::MovieNodeName(m.id), "type",
                       "Movie", NodeKind::kEntity, NodeKind::kClass, prov);
    world.entity_names.push_back(
        synth::EntityUniverse::MovieNodeName(m.id));
  }
  for (const auto& s : universe.songs()) {
    world.entity_names.push_back(synth::EntityUniverse::SongNodeName(s.id));
  }

  // Hostile names that must survive the wire encoding intact.
  const std::vector<std::string> hostile = {
      std::string("nul\0inside", 10), "tab\there", "line\nbreak",
      "h\xc3\xa9llo w\xc3\xb6rld", ""};
  for (size_t i = 0; i < hostile.size(); ++i) {
    world.kg.AddTriple(hostile[i], "hostile_edge",
                       hostile[(i + 1) % hostile.size()], NodeKind::kEntity,
                       NodeKind::kEntity, prov);
    world.entity_names.push_back(hostile[i]);
  }

  world.predicates = {"name",      "birth_year",   "title",
                      "genre",     "directed_by",  "acted_in",
                      "performed_by", "type",      "hostile_edge",
                      "no_such_predicate"};
  return world;
}

std::vector<serve::Query> MakeWorkload(const World& world, Rng& rng) {
  std::vector<serve::Query> queries;
  const std::vector<std::string> types = {"Person", "Movie", "NoSuchType"};
  for (int i = 0; i < kQueriesPerWorld; ++i) {
    const std::string& node =
        world.entity_names[rng.UniformIndex(world.entity_names.size())];
    const std::string& pred =
        world.predicates[rng.UniformIndex(world.predicates.size())];
    const double roll = rng.UniformDouble();
    if (roll < 0.4) {
      queries.push_back(serve::Query::PointLookup(node, pred));
    } else if (roll < 0.65) {
      queries.push_back(serve::Query::Neighborhood(node));
    } else if (roll < 0.85) {
      queries.push_back(serve::Query::AttributeByType(
          types[rng.UniformIndex(types.size())], pred));
    } else {
      queries.push_back(serve::Query::TopKRelated(
          node, static_cast<size_t>(rng.UniformInt(0, 8))));
    }
  }
  return queries;
}

// One remote pass: serve `engine` over loopback, run the workload
// through an RpcClient, compare every answer to the local reference.
void CheckRemoteMatchesLocal(const serve::QueryEngine& engine,
                             const std::vector<serve::Query>& workload,
                             const std::vector<serve::QueryResult>& reference,
                             uint64_t seed, const char* label) {
  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServer server(EngineHandler(&engine), std::move(listener));
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok()) << transport.status();
  RpcClient client(std::move(*transport));
  const auto schema = client.Handshake();
  ASSERT_TRUE(schema.ok()) << schema.status();

  for (size_t i = 0; i < workload.size(); ++i) {
    const auto remote = client.Execute(workload[i]);
    ASSERT_TRUE(remote.ok())
        << label << ", world seed " << seed << ": " << remote.status();
    ASSERT_EQ(*remote, reference[i])
        << label << ", world seed " << seed << ", query "
        << workload[i].CacheKey();
  }
  server.Stop();
  EXPECT_EQ(server.stats().requests_accepted, workload.size());
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

TEST(RpcPropertyTest, LoopbackAnswersMatchInProcessWithAndWithoutCache) {
  int checked = 0;
  for (int world_idx = 0; world_idx < kNumWorlds; ++world_idx) {
    const uint64_t seed = 5000 + static_cast<uint64_t>(world_idx);
    const World world = MakeWorld(seed);
    Rng rng(seed * 17 + 3);
    const std::vector<serve::Query> workload = MakeWorkload(world, rng);
    const serve::KgSnapshot snap = serve::KgSnapshot::Compile(world.kg);

    // In-process reference, computed before any server exists.
    const serve::QueryEngine reference_engine(snap);
    std::vector<serve::QueryResult> reference;
    reference.reserve(workload.size());
    for (const serve::Query& q : workload) {
      reference.push_back(reference_engine.Execute(q));
    }
    checked += static_cast<int>(workload.size());

    const serve::QueryEngine uncached(snap);
    CheckRemoteMatchesLocal(uncached, workload, reference, seed,
                            "uncached");

    serve::ServeOptions cached_options;
    cached_options.cache_capacity = 16;  // Small: forces evictions.
    const serve::QueryEngine cached(snap, cached_options);
    CheckRemoteMatchesLocal(cached, workload, reference, seed, "cached");
  }
  EXPECT_EQ(checked, kNumWorlds * kQueriesPerWorld);
}

// The wire encoding round-trips every query the generator can produce:
// decode(encode(q)) has the same cache key (CacheKey is injective).
TEST(RpcPropertyTest, QueryEncodingRoundTripsAcrossWorkloads) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const World world = MakeWorld(seed);
    Rng rng(seed);
    for (const serve::Query& q : MakeWorkload(world, rng)) {
      const auto decoded = DecodeQuery(EncodeQuery(q));
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded->CacheKey(), q.CacheKey());
    }
  }
}

}  // namespace
}  // namespace kg::rpc
