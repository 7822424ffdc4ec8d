// End-to-end tests for the RPC server: handshake accept/refuse paths,
// protocol discipline (query-before-handshake, malformed bodies,
// framing errors), admission control shedding with kUnavailable, the
// live-store handler, metrics exposition and stage attribution, and a
// real TCP round trip.

#include "rpc/server.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/knowledge_graph.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "store/wal.h"

namespace kg::rpc {
namespace {

using graph::NodeKind;
using graph::Provenance;

const Provenance kProv{"rpc_test", 1.0, 0};

graph::KnowledgeGraph SampleKg() {
  graph::KnowledgeGraph kg;
  kg.AddTriple("m1", "type", "Movie", NodeKind::kEntity, NodeKind::kClass,
               kProv);
  kg.AddTriple("m2", "type", "Movie", NodeKind::kEntity, NodeKind::kClass,
               kProv);
  kg.AddTriple("m1", "title", "The Harbor", NodeKind::kEntity,
               NodeKind::kText, kProv);
  kg.AddTriple("m2", "title", "Night Train", NodeKind::kEntity,
               NodeKind::kText, kProv);
  kg.AddTriple("m1", "directed_by", "ada", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("m2", "directed_by", "ada", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  return kg;
}

std::vector<serve::Query> SampleQueries() {
  return {
      serve::Query::PointLookup("m1", "title"),
      serve::Query::Neighborhood("ada"),
      serve::Query::AttributeByType("Movie", "title"),
      serve::Query::TopKRelated("m1", 3),
      serve::Query::PointLookup("ghost", "title"),  // Empty, not error.
  };
}

/// Reads one frame off a raw transport (test-side mini client).
Result<Frame> ReadOneFrame(ITransport* transport, FrameDecoder* decoder) {
  std::string chunk;
  for (;;) {
    Frame frame;
    const FrameDecoder::Step step = decoder->Next(&frame);
    if (step == FrameDecoder::Step::kFrame) return frame;
    if (step == FrameDecoder::Step::kError) return decoder->error();
    chunk.clear();
    auto read = transport->Read(&chunk, 4096, 5000);
    if (!read.ok()) return read.status();
    if (*read == 0) return Status::DeadlineExceeded("no frame in 5s");
    decoder->Feed(chunk);
  }
}

TEST(RpcServerTest, HandshakeAndQueriesOverLoopback) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServer server(EngineHandler(&engine), std::move(listener));
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok()) << transport.status();
  RpcClient client(std::move(*transport));
  const auto schema = client.Handshake();
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(*schema, serve::kSnapshotSchemaVersion);

  for (const serve::Query& q : SampleQueries()) {
    const auto remote = client.Execute(q);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(*remote, engine.Execute(q)) << q.CacheKey();
  }
  EXPECT_TRUE(client.healthy());

  server.Stop();
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  EXPECT_EQ(server.stats().requests_accepted, SampleQueries().size());
  EXPECT_EQ(server.stats().requests_shed, 0u);
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

TEST(RpcServerTest, HandshakeRefusesStaleClientWithUnavailable) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServerOptions options;
  options.schema_version = serve::kSnapshotSchemaVersion + 1;
  RpcServer server(EngineHandler(&engine), std::move(listener), options);
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  RpcClient client(std::move(*transport));
  const auto schema = client.Handshake();
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetriable(schema.status().code()));
  EXPECT_FALSE(client.healthy());
  server.Stop();
}

TEST(RpcServerTest, QueryBeforeHandshakeIsRefusedAndDropped) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServer server(EngineHandler(&engine), std::move(listener));
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  std::string frame;
  AppendFrame(&frame, MessageType::kQueryRequest, 1,
              EncodeQuery(serve::Query::PointLookup("m1", "title")));
  ASSERT_TRUE((*transport)->Write(frame).ok());
  FrameDecoder decoder;
  const auto resp_frame = ReadOneFrame(transport->get(), &decoder);
  ASSERT_TRUE(resp_frame.ok()) << resp_frame.status();
  const auto resp = DecodeQueryResponse(resp_frame->body);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->code, StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST(RpcServerTest, MalformedBodyGetsInvalidArgumentAndConnectionSurvives) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServer server(EngineHandler(&engine), std::move(listener));
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  ITransport* t = transport->get();
  FrameDecoder decoder;

  std::string hs;
  AppendFrame(&hs, MessageType::kHandshakeRequest, 1,
              EncodeHandshakeRequest(
                  HandshakeRequest{serve::kSnapshotSchemaVersion}));
  ASSERT_TRUE(t->Write(hs).ok());
  ASSERT_TRUE(ReadOneFrame(t, &decoder).ok());

  // A frame whose checksum is fine but whose body is not a query.
  std::string bad;
  AppendFrame(&bad, MessageType::kQueryRequest, 2, "not a query");
  ASSERT_TRUE(t->Write(bad).ok());
  const auto bad_resp_frame = ReadOneFrame(t, &decoder);
  ASSERT_TRUE(bad_resp_frame.ok()) << bad_resp_frame.status();
  const auto bad_resp = DecodeQueryResponse(bad_resp_frame->body);
  ASSERT_TRUE(bad_resp.ok());
  EXPECT_EQ(bad_resp->code, StatusCode::kInvalidArgument);

  // The connection is still serviceable afterwards.
  std::string good;
  AppendFrame(&good, MessageType::kQueryRequest, 3,
              EncodeQuery(serve::Query::PointLookup("m1", "title")));
  ASSERT_TRUE(t->Write(good).ok());
  const auto good_resp_frame = ReadOneFrame(t, &decoder);
  ASSERT_TRUE(good_resp_frame.ok()) << good_resp_frame.status();
  const auto good_resp = DecodeQueryResponse(good_resp_frame->body);
  ASSERT_TRUE(good_resp.ok());
  EXPECT_EQ(good_resp->code, StatusCode::kOk);
  EXPECT_EQ(good_resp->rows, (serve::QueryResult{"T:The Harbor"}));
  server.Stop();
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

TEST(RpcServerTest, FramingErrorDropsConnection) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServer server(EngineHandler(&engine), std::move(listener));
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  ITransport* t = transport->get();

  std::string frame;
  AppendFrame(&frame, MessageType::kHandshakeRequest, 1,
              EncodeHandshakeRequest(
                  HandshakeRequest{serve::kSnapshotSchemaVersion}));
  frame[5] ^= 0x40;  // Corrupt the checksum.
  ASSERT_TRUE(t->Write(frame).ok());

  // The server must close the stream; a blocking read eventually
  // returns kUnavailable with nothing delivered.
  std::string chunk;
  auto read = t->Read(&chunk, 4096, 5000);
  while (read.ok() && *read > 0) {
    chunk.clear();
    read = t->Read(&chunk, 4096, 5000);
  }
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  server.Stop();
  EXPECT_EQ(server.stats().frame_errors, 1u);
  EXPECT_EQ(server.stats().requests_accepted, 0u);
}

TEST(RpcServerTest, OverloadShedsWithUnavailable) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  // One worker, blocked on a latch; per-connection queue of 1. The
  // first request occupies the queue slot, every further one is shed
  // inline with kUnavailable — the retriable signal.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  auto blocking_handler =
      [&engine, released](const serve::Query& q) -> Result<serve::QueryResult> {
    released.wait();
    return engine.TryExecute(q);
  };

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServerOptions options;
  options.worker_threads = 1;
  options.max_queue_per_connection = 1;
  RpcServer server(blocking_handler, std::move(listener), options);
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  ITransport* t = transport->get();
  FrameDecoder decoder;

  std::string hs;
  AppendFrame(&hs, MessageType::kHandshakeRequest, 1,
              EncodeHandshakeRequest(
                  HandshakeRequest{serve::kSnapshotSchemaVersion}));
  ASSERT_TRUE(t->Write(hs).ok());
  ASSERT_TRUE(ReadOneFrame(t, &decoder).ok());

  const std::string qbody =
      EncodeQuery(serve::Query::PointLookup("m1", "title"));
  constexpr uint32_t kFirstId = 2;
  constexpr int kExtra = 5;
  std::string burst;
  for (uint32_t id = kFirstId; id < kFirstId + 1 + kExtra; ++id) {
    AppendFrame(&burst, MessageType::kQueryRequest, id, qbody);
  }
  ASSERT_TRUE(t->Write(burst).ok());

  // The shed responses come back first (written inline by the event
  // loop while the accepted request is parked on the latch).
  int shed = 0;
  for (int i = 0; i < kExtra; ++i) {
    const auto frame = ReadOneFrame(t, &decoder);
    ASSERT_TRUE(frame.ok()) << frame.status();
    const auto resp = DecodeQueryResponse(frame->body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kUnavailable);
    EXPECT_TRUE(IsRetriable(resp->code));
    ++shed;
  }
  release.set_value();
  const auto accepted_frame = ReadOneFrame(t, &decoder);
  ASSERT_TRUE(accepted_frame.ok()) << accepted_frame.status();
  EXPECT_EQ(accepted_frame->request_id, kFirstId);
  const auto accepted = DecodeQueryResponse(accepted_frame->body);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->code, StatusCode::kOk);
  EXPECT_EQ(accepted->rows, (serve::QueryResult{"T:The Harbor"}));

  server.Stop();
  EXPECT_EQ(shed, kExtra);
  EXPECT_EQ(server.stats().requests_shed, static_cast<uint64_t>(kExtra));
  EXPECT_EQ(server.stats().requests_accepted, 1u);
}

TEST(RpcServerTest, StoreHandlerServesLiveMutations) {
  auto store = store::VersionedKgStore::Open(SampleKg());
  ASSERT_TRUE(store.ok()) << store.status();

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServer server(StoreHandler(store->get()), std::move(listener));
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  RpcClient client(std::move(*transport));
  ASSERT_TRUE(client.Handshake().ok());

  const serve::Query q = serve::Query::PointLookup("m1", "title");
  auto before = client.Execute(q);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(*before, (serve::QueryResult{"T:The Harbor"}));

  // Mutate the store under the running server; the next remote answer
  // must reflect the new epoch.
  ASSERT_TRUE((*store)
                  ->Apply(store::Mutation::Upsert(
                      "m1", "title", "Second Title", NodeKind::kEntity,
                      NodeKind::kText, kProv))
                  .ok());
  auto after = client.Execute(q);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after,
            (serve::QueryResult{"T:Second Title", "T:The Harbor"}));
  server.Stop();
}

TEST(RpcServerTest, MetricsLandInRegistry) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  obs::MetricsRegistry registry;
  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServerOptions options;
  options.registry = &registry;
  RpcServer server(EngineHandler(&engine), std::move(listener), options);
  ASSERT_TRUE(server.Start().ok());

  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  RpcClient client(std::move(*transport));
  ASSERT_TRUE(client.Handshake().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Execute(serve::Query::PointLookup("m1", "title")).ok());
  }
  ASSERT_TRUE(client.Execute(serve::Query::TopKRelated("m1", 2)).ok());
  server.Stop();

  EXPECT_EQ(registry.GetCounter("rpc.connections.accepted").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("rpc.requests.accepted").Value(), 4u);
  EXPECT_EQ(registry.GetCounter("rpc.requests.shed").Value(), 0u);
  EXPECT_EQ(registry.GetCounter("rpc.frame_errors").Value(), 0u);
  EXPECT_EQ(registry.GetGauge("rpc.inflight").Value(), 0);
  EXPECT_EQ(registry
                .GetHistogram("rpc.latency_us.point_lookup",
                              obs::LatencyBucketsUs())
                .Count(),
            3u);
  EXPECT_EQ(registry
                .GetHistogram("rpc.latency_us.topk_related",
                              obs::LatencyBucketsUs())
                .Count(),
            1u);
  // Each stage the server owns observes every accepted query once, in
  // its class.
  for (const obs::Stage stage :
       {obs::Stage::kAdmission, obs::Stage::kDecode, obs::Stage::kQueueWait,
        obs::Stage::kEngineExecute}) {
    EXPECT_EQ(obs::StageHistogram(registry, stage, "point_lookup").Count(), 3u)
        << obs::StageName(stage);
    EXPECT_EQ(obs::StageHistogram(registry, stage, "neighborhood").Count(), 0u)
        << obs::StageName(stage);
    EXPECT_EQ(obs::StageHistogram(registry, stage, "topk_related").Count(), 1u)
        << obs::StageName(stage);
  }
}

TEST(RpcServerTest, TcpEndToEnd) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  auto listener = TcpTransportServer::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = (*listener)->port();
  ASSERT_NE(port, 0);
  RpcServer server(EngineHandler(&engine), std::move(*listener));
  ASSERT_TRUE(server.Start().ok());

  auto transport = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(transport.ok()) << transport.status();
  RpcClient client(std::move(*transport));
  const auto schema = client.Handshake();
  ASSERT_TRUE(schema.ok()) << schema.status();
  for (const serve::Query& q : SampleQueries()) {
    const auto remote = client.Execute(q);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(*remote, engine.Execute(q)) << q.CacheKey();
  }
  server.Stop();
}

TEST(RpcServerTest, StopUnblocksIdleConnectionsAndIsIdempotent) {
  const graph::KnowledgeGraph kg = SampleKg();
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const serve::QueryEngine engine(snap);

  auto listener = std::make_unique<InMemoryTransportServer>();
  InMemoryTransportServer* loopback = listener.get();
  RpcServer server(EngineHandler(&engine), std::move(listener));
  ASSERT_TRUE(server.Start().ok());
  auto transport = loopback->Connect();
  ASSERT_TRUE(transport.ok());
  server.Stop();
  server.Stop();  // Idempotent.

  // The orphaned client sees a dead stream, not a hang.
  std::string chunk;
  const auto read = (*transport)->Read(&chunk, 64, 1000);
  EXPECT_TRUE(!read.ok() || *read == 0);
}

// Regression: a read timeout that lands MID-FRAME (a partial header
// sitting in the decoder) must break the stream, not leave it "usable".
// Resynchronizing after a fragment would splice the next response's
// bytes onto it and manufacture garbage; the client must return
// kUnavailable, mark itself unhealthy, and refuse further traffic.
TEST(RpcClientTest, TimeoutMidFrameBreaksTheStream) {
  InMemoryTransportServer loopback;
  auto client_end = loopback.Connect();
  ASSERT_TRUE(client_end.ok());
  auto server_end = loopback.Accept();
  ASSERT_TRUE(server_end.ok());

  RpcClientOptions options;
  options.read_timeout_ms = 100;
  RpcClient client(std::move(*client_end), options);

  // Hand-driven server: answer the handshake honestly, then answer the
  // query with only the first 5 bytes of a valid response frame and go
  // silent with the connection still open.
  auto server = std::async(std::launch::async, [&]() -> Status {
    FrameDecoder decoder;
    KG_ASSIGN_OR_RETURN(Frame hs,
                        ReadOneFrame(server_end->get(), &decoder));
    if (hs.type != MessageType::kHandshakeRequest) {
      return Status::Internal("expected handshake");
    }
    HandshakeResponse resp;
    resp.schema_version = serve::kSnapshotSchemaVersion;
    std::string out;
    AppendFrame(&out, MessageType::kHandshakeResponse, hs.request_id,
                EncodeHandshakeResponse(resp));
    KG_RETURN_IF_ERROR((*server_end)->Write(out));
    KG_ASSIGN_OR_RETURN(Frame query,
                        ReadOneFrame(server_end->get(), &decoder));
    QueryResponse qr;
    qr.rows = {"E:answer"};
    out.clear();
    AppendFrame(&out, MessageType::kQueryResponse, query.request_id,
                EncodeQueryResponse(qr));
    return (*server_end)->Write(std::string_view(out).substr(0, 5));
  });

  ASSERT_TRUE(client.Handshake().ok());
  const auto result =
      client.Execute(serve::Query::PointLookup("m1", "title"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("mid-frame"), std::string::npos)
      << result.status();
  EXPECT_FALSE(client.healthy());

  // A broken client refuses immediately instead of reusing the stream.
  const auto after =
      client.Execute(serve::Query::PointLookup("m1", "title"));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(server.get().ok());
  (*server_end)->Close();
}

}  // namespace
}  // namespace kg::rpc
