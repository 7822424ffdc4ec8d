// WAL shipping, end to end: ShardLog chain algebra, the wire-level
// subscribe/batch/heartbeat protocol against a real RpcServer, the
// receiver's verify-before-apply discipline (a tampered chain is
// rejected and the session torn down, never applied), the connection
// barrier Cluster::Create waits on, persisted-offset resume from a
// replica-local WAL, and failover serving from shipped state.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/member.h"
#include "cluster/shard_log.h"
#include "cluster/wal_receiver.h"
#include "common/bytes.h"
#include "common/hash.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "store/wal.h"

namespace kg::cluster {
namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Provenance;
using serve::Query;
using store::Mutation;

const Provenance kProv{"repl_test", 1.0, 0};

std::vector<Mutation> SomeMutations(int n, int salt = 0) {
  std::vector<Mutation> mutations;
  for (int i = 0; i < n; ++i) {
    mutations.push_back(Mutation::Upsert(
        "node" + std::to_string(salt * 100 + i), "links",
        "node" + std::to_string(salt * 100 + i + 1), NodeKind::kEntity,
        NodeKind::kEntity, kProv));
  }
  return mutations;
}

std::string LogBytes(const ShardLog& log) {
  uint64_t end = 0;
  uint32_t chain = 0;
  return log.ReadFrom(0, size_t{1} << 30, &end, &chain);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool WaitUntil(int timeout_ms, const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Blocks (bounded) until one complete frame arrives on `transport`.
Result<rpc::Frame> ReadOneFrame(rpc::ITransport* transport,
                                rpc::FrameDecoder* decoder,
                                int timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string chunk;
  for (;;) {
    rpc::Frame frame;
    const auto step = decoder->Next(&frame);
    if (step == rpc::FrameDecoder::Step::kFrame) return frame;
    if (step == rpc::FrameDecoder::Step::kError) return decoder->error();
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return Status::Unavailable("frame timeout");
    chunk.clear();
    auto read =
        transport->Read(&chunk, 64 * 1024, static_cast<int>(left.count()));
    if (!read.ok()) return read.status();
    decoder->Feed(chunk);
  }
}

TEST(ShardLogTest, BatchingInvariantAndChainAlgebra) {
  const std::vector<Mutation> mutations = SomeMutations(7);
  ShardLog one_by_one;
  for (const Mutation& m : mutations) {
    one_by_one.Append(std::span<const Mutation>(&m, 1));
  }
  ShardLog batched;
  batched.Append(mutations);

  // The log image is a pure function of the mutation sequence, not of
  // how commits were grouped.
  const std::string bytes = LogBytes(batched);
  EXPECT_EQ(bytes, LogBytes(one_by_one));
  EXPECT_EQ(batched.EndOffset(), bytes.size());

  // The byte image replays to exactly the appended mutations, and the
  // fold of the chain over it equals the incremental chain.
  const store::WalReplay replay = store::ReplayWalBuffer(bytes);
  ASSERT_TRUE(replay.clean);
  EXPECT_EQ(replay.mutations, mutations);
  EXPECT_EQ(ShardLog::FoldChain(0, bytes, replay.frame_offsets),
            batched.ChainAt(batched.EndOffset()));

  // Boundaries are exactly the frame starts plus the end; ChainAt at
  // boundary i equals the fold over the prefix; ChainStep composes.
  uint32_t chain = 0;
  for (size_t i = 0; i < replay.frame_offsets.size(); ++i) {
    const uint64_t off = replay.frame_offsets[i];
    EXPECT_TRUE(batched.IsBoundary(off));
    EXPECT_FALSE(batched.IsBoundary(off + 1));
    EXPECT_EQ(batched.ChainAt(off), chain);
    const uint64_t next = i + 1 < replay.frame_offsets.size()
                              ? replay.frame_offsets[i + 1]
                              : bytes.size();
    chain = ShardLog::ChainStep(
        chain, std::string_view(bytes).substr(off, next - off));
  }
  EXPECT_TRUE(batched.IsBoundary(bytes.size()));
  EXPECT_EQ(batched.ChainAt(bytes.size()), chain);
}

// ChainStep hashes from a running state; it must equal the checksum of
// the concatenation it replaces, whatever the frame holds. And the fold
// over a replay's offsets equals stepping the chain over the frames one
// by one, as the log ships them.
TEST(ShardLogTest, ChainStepEqualsChecksumOfChainThenFrame) {
  std::string ramp(1 << 16, '\0');
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<char>(i * 131 + 7);
  }
  const std::vector<std::string> frames = {
      "", std::string(1, '\0'), std::string(3, '\0'), "\xff\xfe\x80",
      "frame", std::string(1 << 16, '\0'), ramp,
  };
  for (const uint32_t chain :
       {0u, 1u, 0x80u, 0xdeadbeefu, 0xffffffffu, 0x00ff00ffu}) {
    for (const std::string& frame : frames) {
      std::string seeded;
      PutU32(&seeded, chain);
      seeded += frame;
      EXPECT_EQ(ShardLog::ChainStep(chain, frame), Checksum32(seeded))
          << "chain " << chain << ", frame of " << frame.size() << " bytes";
    }
  }
  ShardLog log;
  log.Append(SomeMutations(9));
  const std::string bytes = LogBytes(log);
  const store::WalReplay replay = store::ReplayWalBuffer(bytes);
  ASSERT_TRUE(replay.clean);
  uint32_t stepped = 7;
  for (uint64_t offset = 0; offset < log.EndOffset();) {
    uint64_t end = 0;
    uint32_t chain_after = 0;
    const std::string frame = log.ReadFrom(offset, 1, &end, &chain_after);
    ASSERT_GT(end, offset);
    stepped = ShardLog::ChainStep(stepped, frame);
    offset = end;
  }
  EXPECT_EQ(ShardLog::FoldChain(7, bytes, replay.frame_offsets), stepped);
  EXPECT_EQ(ShardLog::FoldChain(0, bytes, replay.frame_offsets),
            log.ChainAt(log.EndOffset()));
  EXPECT_EQ(ShardLog::FoldChain(5, "", {}), 5u);
}

TEST(ShardLogTest, ReadFromShipsWholeFramesWithinBudget) {
  ShardLog log;
  log.Append(SomeMutations(9));
  const std::string all = LogBytes(log);

  // A 1-byte budget still ships one whole frame (progress guarantee);
  // walking the log with a tiny budget reconstructs it byte-exactly
  // with a consistent chain at every step.
  std::string walked;
  uint64_t offset = 0;
  uint32_t chain = 0;
  while (offset < log.EndOffset()) {
    uint64_t end = 0;
    uint32_t chain_after = 0;
    const std::string slice = log.ReadFrom(offset, 1, &end, &chain_after);
    ASSERT_GT(slice.size(), 0u);
    ASSERT_GT(end, offset);
    EXPECT_TRUE(log.IsBoundary(end));
    const store::WalReplay sliced = store::ReplayWalBuffer(slice);
    ASSERT_TRUE(sliced.clean);
    EXPECT_EQ(chain_after,
              ShardLog::FoldChain(chain, slice, sliced.frame_offsets));
    walked += slice;
    offset = end;
    chain = chain_after;
  }
  EXPECT_EQ(walked, all);
}

// A hand-rolled wire subscriber against a real RpcServer: the stream
// must deliver the exact log bytes as contiguous verified batches, keep
// proving the chain on idle heartbeats, and keep shipping as the log
// grows mid-subscription.
TEST(WireProtocolTest, SubscriberReceivesContiguousVerifiedBatches) {
  ShardLog log;
  log.Append(SomeMutations(6, 1));

  auto listener = std::make_unique<rpc::InMemoryTransportServer>();
  rpc::InMemoryTransportServer* loopback = listener.get();
  rpc::RpcServerOptions sopts;
  sopts.worker_threads = 1;
  sopts.wal_source = &log;
  sopts.wal_heartbeat_interval_ms = 5;
  sopts.wal_batch_max_bytes = 1;  // Force one frame per batch.
  rpc::RpcServer server(
      [](const Query&) -> Result<serve::QueryResult> {
        return serve::QueryResult{};
      },
      std::move(listener), sopts);
  ASSERT_TRUE(server.Start().ok());

  auto dialed = loopback->Connect();
  ASSERT_TRUE(dialed.ok());
  std::unique_ptr<rpc::ITransport> transport = std::move(*dialed);
  rpc::FrameDecoder decoder;

  rpc::HandshakeRequest hs;
  hs.max_schema_version = serve::kSnapshotSchemaVersion;
  std::string out;
  rpc::AppendFrame(&out, rpc::MessageType::kHandshakeRequest, 1,
                   rpc::EncodeHandshakeRequest(hs));
  ASSERT_TRUE(transport->Write(out).ok());
  auto hs_frame = ReadOneFrame(transport.get(), &decoder);
  ASSERT_TRUE(hs_frame.ok()) << hs_frame.status();
  ASSERT_EQ(hs_frame->type, rpc::MessageType::kHandshakeResponse);

  rpc::WalSubscribe sub;
  out.clear();
  rpc::AppendFrame(&out, rpc::MessageType::kWalSubscribe, 2,
                   rpc::EncodeWalSubscribe(sub));
  ASSERT_TRUE(transport->Write(out).ok());

  // Collect until we have the whole current log, then grow it and
  // collect the rest. Heartbeats may interleave; each must carry the
  // true chain for its log end.
  std::string shipped;
  uint32_t chain = 0;
  bool grew = false;
  size_t batches = 0;
  const uint64_t first_goal = log.EndOffset();
  for (;;) {
    auto frame = ReadOneFrame(transport.get(), &decoder);
    ASSERT_TRUE(frame.ok()) << frame.status();
    if (frame->type == rpc::MessageType::kWalHeartbeat) {
      auto hb = rpc::DecodeWalHeartbeat(frame->body);
      ASSERT_TRUE(hb.ok());
      EXPECT_EQ(hb->chain_at_end, log.ChainAt(hb->log_end));
      if (!grew && shipped.size() >= first_goal) {
        log.Append(SomeMutations(4, 2));
        grew = true;
      }
      continue;
    }
    ASSERT_EQ(frame->type, rpc::MessageType::kWalBatch);
    auto batch = rpc::DecodeWalBatch(frame->body);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->code, StatusCode::kOk) << batch->message;
    ++batches;
    // Contiguity + chain proof, exactly what a replica checks.
    ASSERT_EQ(batch->start_offset, shipped.size());
    ASSERT_EQ(batch->end_offset, shipped.size() + batch->frames.size());
    ASSERT_GE(batch->log_end, batch->end_offset);
    const store::WalReplay replay = store::ReplayWalBuffer(batch->frames);
    ASSERT_TRUE(replay.clean);
    chain = ShardLog::FoldChain(chain, batch->frames, replay.frame_offsets);
    ASSERT_EQ(chain, batch->chain_after);
    shipped += batch->frames;
    if (grew && shipped.size() >= log.EndOffset()) break;
  }
  EXPECT_EQ(shipped, LogBytes(log));
  // wal_batch_max_bytes=1 means every batch carried exactly one frame.
  EXPECT_EQ(batches, 10u);
  transport->Close();
  server.Stop();
}

TEST(WireProtocolTest, NonBoundarySubscribeOffsetIsRefused) {
  ShardLog log;
  log.Append(SomeMutations(3));

  auto listener = std::make_unique<rpc::InMemoryTransportServer>();
  rpc::InMemoryTransportServer* loopback = listener.get();
  rpc::RpcServerOptions sopts;
  sopts.worker_threads = 1;
  sopts.wal_source = &log;
  rpc::RpcServer server(
      [](const Query&) -> Result<serve::QueryResult> {
        return serve::QueryResult{};
      },
      std::move(listener), sopts);
  ASSERT_TRUE(server.Start().ok());

  auto dialed = loopback->Connect();
  ASSERT_TRUE(dialed.ok());
  std::unique_ptr<rpc::ITransport> transport = std::move(*dialed);
  rpc::FrameDecoder decoder;
  rpc::HandshakeRequest hs;
  hs.max_schema_version = serve::kSnapshotSchemaVersion;
  std::string out;
  rpc::AppendFrame(&out, rpc::MessageType::kHandshakeRequest, 1,
                   rpc::EncodeHandshakeRequest(hs));
  ASSERT_TRUE(transport->Write(out).ok());
  auto hs_frame = ReadOneFrame(transport.get(), &decoder);
  ASSERT_TRUE(hs_frame.ok());

  rpc::WalSubscribe sub;
  sub.from_offset = 3;  // Mid-frame: not a boundary.
  out.clear();
  rpc::AppendFrame(&out, rpc::MessageType::kWalSubscribe, 2,
                   rpc::EncodeWalSubscribe(sub));
  ASSERT_TRUE(transport->Write(out).ok());

  auto frame = ReadOneFrame(transport.get(), &decoder);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, rpc::MessageType::kWalBatch);
  auto batch = rpc::DecodeWalBatch(frame->body);
  ASSERT_TRUE(batch.ok());
  EXPECT_NE(batch->code, StatusCode::kOk);
  transport->Close();
  server.Stop();
}

// Drives a WalReceiver from a hand-rolled fake primary: a batch whose
// chain_after lies must be rejected WITHOUT applying, the session torn
// down, and the resubscribe must come back at the unchanged verified
// offset. A heartbeat claiming a different chain at the caught-up
// offset must likewise kill the session.
TEST(WalReceiverTest, TamperedChainIsRejectedThenHonestBatchApplies) {
  auto store = store::VersionedKgStore::Open(KnowledgeGraph(), {});
  ASSERT_TRUE(store.ok());

  rpc::InMemoryTransportServer listener;
  WalReceiverOptions ropts;
  ropts.heartbeat_timeout_ms = 2000;
  ropts.dial_retry_ms = 1;
  ropts.max_dial_attempts = 1000;
  WalReceiver receiver([&]() { return listener.Connect(); }, store->get(),
                       0, "fake.replica", ropts);
  receiver.Start();

  ShardLog log;
  log.Append(SomeMutations(4));
  uint64_t end = 0;
  uint32_t chain = 0;
  const std::string frames = log.ReadFrom(0, size_t{1} << 30, &end, &chain);

  // One fake-primary session: answer the handshake, check the
  // subscribe offset, send one prepared batch.
  const auto serve_session =
      [&](uint64_t expect_offset,
          const rpc::WalBatch& batch) -> Result<std::unique_ptr<rpc::ITransport>> {
    KG_ASSIGN_OR_RETURN(std::unique_ptr<rpc::ITransport> conn,
                        listener.Accept());
    rpc::FrameDecoder decoder;
    KG_ASSIGN_OR_RETURN(rpc::Frame hs,
                        ReadOneFrame(conn.get(), &decoder));
    if (hs.type != rpc::MessageType::kHandshakeRequest) {
      return Status::Internal("expected handshake");
    }
    rpc::HandshakeResponse resp;
    resp.schema_version = serve::kSnapshotSchemaVersion;
    std::string out;
    rpc::AppendFrame(&out, rpc::MessageType::kHandshakeResponse,
                     hs.request_id, rpc::EncodeHandshakeResponse(resp));
    KG_RETURN_IF_ERROR(conn->Write(out));
    KG_ASSIGN_OR_RETURN(rpc::Frame sub_frame,
                        ReadOneFrame(conn.get(), &decoder));
    if (sub_frame.type != rpc::MessageType::kWalSubscribe) {
      return Status::Internal("expected subscribe");
    }
    KG_ASSIGN_OR_RETURN(rpc::WalSubscribe sub,
                        rpc::DecodeWalSubscribe(sub_frame.body));
    if (sub.from_offset != expect_offset) {
      return Status::Internal("subscribed from " +
                              std::to_string(sub.from_offset));
    }
    out.clear();
    rpc::AppendFrame(&out, rpc::MessageType::kWalBatch, 0,
                     rpc::EncodeWalBatch(batch));
    KG_RETURN_IF_ERROR(conn->Write(out));
    return conn;
  };

  // Session 1: correct bytes, lying chain. Must NOT apply.
  rpc::WalBatch tampered;
  tampered.start_offset = 0;
  tampered.end_offset = end;
  tampered.chain_after = chain ^ 0xdeadbeefu;
  tampered.log_end = end;
  tampered.frames = frames;
  auto s1 = serve_session(0, tampered);
  ASSERT_TRUE(s1.ok()) << s1.status();
  ASSERT_TRUE(WaitUntil(5000, [&] { return receiver.sessions() >= 2; }));
  EXPECT_EQ((*store)->applied_watermark(), 0u)
      << "tampered batch must never reach the store";

  // Session 2: the honest batch. Applies, watermark advances, content
  // is served.
  rpc::WalBatch honest = tampered;
  honest.chain_after = chain;
  auto s2 = serve_session(0, honest);
  ASSERT_TRUE(s2.ok()) << s2.status();
  ASSERT_TRUE(
      WaitUntil(5000, [&] { return (*store)->applied_watermark() == end; }));
  auto rows = (*store)->TryExecute(Query::PointLookup("node0", "links"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (serve::QueryResult{"E:node1"}));

  // Session 2 is caught up; a heartbeat whose chain diverges at that
  // offset must tear the session down (receiver dials session 3).
  rpc::WalHeartbeat hb;
  hb.log_end = end;
  hb.chain_at_end = chain ^ 1u;
  std::string out;
  rpc::AppendFrame(&out, rpc::MessageType::kWalHeartbeat, 0,
                   rpc::EncodeWalHeartbeat(hb));
  ASSERT_TRUE((*s2)->Write(out).ok());
  ASSERT_TRUE(WaitUntil(5000, [&] { return receiver.sessions() >= 3; }));
  // Resubscribe resumes from the verified offset, not from zero.
  rpc::WalBatch empty;
  empty.start_offset = end;
  empty.end_offset = end;
  empty.chain_after = chain;
  empty.log_end = end;
  auto s3 = serve_session(end, empty);
  EXPECT_TRUE(s3.ok()) << s3.status();

  receiver.Stop();
  listener.Shutdown();
}

// WaitUntilConnected, the barrier Cluster::Create waits on, holds through
// the dial and the handshake request, and returns true only once the
// primary has answered the handshake.
TEST(WalReceiverTest, WaitUntilConnectedHoldsUntilTheHandshakeIsAnswered) {
  auto store = store::VersionedKgStore::Open(KnowledgeGraph(), {});
  ASSERT_TRUE(store.ok());

  rpc::InMemoryTransportServer listener;
  WalReceiverOptions ropts;
  ropts.heartbeat_timeout_ms = 2000;
  ropts.dial_retry_ms = 1;
  WalReceiver receiver([&]() { return listener.Connect(); }, store->get(),
                       0, "fake.replica", ropts);
  receiver.Start();
  std::atomic<bool> returned{false};
  bool connected = false;
  std::thread waiter([&] {
    connected = receiver.WaitUntilConnected();
    returned.store(true);
  });

  // A fake primary that reads the handshake and answers it only after
  // checking that the waiter still waits.
  std::unique_ptr<rpc::ITransport> session;
  const Status served = [&]() -> Status {
    KG_ASSIGN_OR_RETURN(session, listener.Accept());
    rpc::FrameDecoder decoder;
    KG_ASSIGN_OR_RETURN(rpc::Frame hs, ReadOneFrame(session.get(), &decoder));
    if (hs.type != rpc::MessageType::kHandshakeRequest) {
      return Status::Internal("expected handshake");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (returned.load()) {
      return Status::Internal("returned before the handshake answer");
    }
    rpc::HandshakeResponse resp;
    resp.schema_version = serve::kSnapshotSchemaVersion;
    std::string out;
    rpc::AppendFrame(&out, rpc::MessageType::kHandshakeResponse,
                     hs.request_id, rpc::EncodeHandshakeResponse(resp));
    return session->Write(out);
  }();
  if (!served.ok()) receiver.Stop();  // Releases the waiter.
  waiter.join();
  ASSERT_TRUE(served.ok()) << served;
  EXPECT_TRUE(connected);
  receiver.Stop();
  listener.Shutdown();
}

// A receiver that gives up dialing releases the barrier with false.
TEST(WalReceiverTest, WaitUntilConnectedEndsWhenDialsAreExhausted) {
  auto store = store::VersionedKgStore::Open(KnowledgeGraph(), {});
  ASSERT_TRUE(store.ok());
  WalReceiverOptions ropts;
  ropts.dial_retry_ms = 1;
  ropts.max_dial_attempts = 3;
  std::atomic<int> dials{0};
  WalReceiver receiver(
      [&]() -> Result<std::unique_ptr<rpc::ITransport>> {
        dials.fetch_add(1);
        return Status::Unavailable("primary down");
      },
      store->get(), 0, "lonely.replica", ropts);
  receiver.Start();
  EXPECT_FALSE(receiver.WaitUntilConnected());
  EXPECT_FALSE(receiver.running());
  EXPECT_EQ(dials.load(), 3);
}

// Create returns with every replica connected, so the caller's first read
// or commit never runs beside a member that is still connecting.
TEST(ClusterStartupTest, CreateReturnsWithEveryReplicaConnected) {
  ClusterOptions opts;
  opts.num_shards = 3;
  opts.replicas_per_shard = 2;
  opts.receiver.dial_retry_ms = 1;
  obs::MetricsRegistry registry;
  opts.registry = &registry;

  KnowledgeGraph base;
  base.AddTriple("seed", "links", "root", NodeKind::kEntity,
                 NodeKind::kEntity, kProv);
  auto cluster = Cluster::Create(base, opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
#ifndef KG_OBS_NOOP
  // Read first, before anything below can wait: each primary had
  // accepted its replicas' sessions by the time Create returned.
  EXPECT_EQ(registry.GetCounter("rpc.connections.accepted").Value(),
            opts.num_shards * opts.replicas_per_shard);
#endif
  for (size_t s = 0; s < opts.num_shards; ++s) {
    for (size_t r = 0; r < opts.replicas_per_shard; ++r) {
      WalReceiver& receiver = (*cluster)->replica(s, r).receiver();
      EXPECT_EQ(receiver.sessions(), 1u) << "s" << s << "r" << r;
      EXPECT_TRUE(receiver.WaitUntilConnected()) << "s" << s << "r" << r;
    }
  }
}

// Replica-local WAL as the durable resume point: a torn-down replica
// reopens its file, replays the verified prefix WITHOUT the primary,
// and resubscribes from exactly that byte offset — even when the tail
// was torn mid-frame.
TEST(ReplicaResumeTest, PersistedOffsetSurvivesRecreationAndTornTail) {
  ClusterOptions ropts;
  ropts.wal_dir = ::testing::TempDir() + "/cluster_replica_resume";
  std::filesystem::create_directories(ropts.wal_dir);
  const std::string wal_path = ropts.wal_dir + "/s0r0.wal";
  std::remove(wal_path.c_str());

  KnowledgeGraph base;
  base.AddTriple("seed", "links", "root", NodeKind::kEntity,
                 NodeKind::kEntity, kProv);
  auto primary = PrimaryMember::Create(0, base);
  ASSERT_TRUE(primary.ok());

  ropts.receiver.dial_retry_ms = 1;
  ropts.receiver.max_dial_attempts = 10;
  auto replica = ReplicaMember::Create(0, 0, base,
                                       (*primary)->DialFactory(), ropts);
  ASSERT_TRUE(replica.ok());

  ASSERT_TRUE((*primary)->ApplyBatch(SomeMutations(5, 1)).ok());
  ASSERT_TRUE((*primary)->ApplyBatch(SomeMutations(5, 2)).ok());
  const uint64_t log_end = (*primary)->log_end();
  ASSERT_TRUE(WaitUntil(5000, [&] {
    return (*replica)->applied_offset() == log_end;
  }));
  (*replica).reset();

  // The applied bytes on disk are the primary's log prefix, verbatim.
  EXPECT_EQ(ReadFileBytes(wal_path), LogBytes((*primary)->log()));

  // Recreate against a DEAD primary: state must come from the file
  // alone, watermark at the persisted offset, answers identical.
  (*primary)->Kill();
  auto resumed = ReplicaMember::Create(0, 0, base,
                                       (*primary)->DialFactory(), ropts);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)->applied_offset(), log_end);
  const Query probe = Query::PointLookup("node101", "links");
  auto expected = (*primary)->store().TryExecute(probe);
  auto actual = (*resumed)->store().TryExecute(probe);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(*actual, *expected);

  // Revive the primary, write more: the resumed replica ships only the
  // suffix and converges.
  ASSERT_TRUE((*primary)->Revive().ok());
  (*resumed)->EnsureLink();  // The dead-primary dials may have exhausted.
  ASSERT_TRUE((*primary)->ApplyBatch(SomeMutations(3, 3)).ok());
  ASSERT_TRUE(WaitUntil(5000, [&] {
    return (*resumed)->applied_offset() == (*primary)->log_end();
  }));
  EXPECT_EQ(ReadFileBytes(wal_path), LogBytes((*primary)->log()));
  (*resumed).reset();

  // Tear the tail mid-frame: recovery resumes from the last whole
  // frame and re-ships the rest, converging to the same bytes.
  const std::string full = ReadFileBytes(wal_path);
  std::ofstream torn(wal_path, std::ios::binary | std::ios::trunc);
  torn.write(full.data(), static_cast<std::streamsize>(full.size() - 5));
  torn.close();
  auto healed = ReplicaMember::Create(0, 0, base,
                                      (*primary)->DialFactory(), ropts);
  ASSERT_TRUE(healed.ok());
  EXPECT_LT((*healed)->applied_offset(), full.size());
  ASSERT_TRUE(WaitUntil(5000, [&] {
    return (*healed)->applied_offset() == (*primary)->log_end();
  }));
  EXPECT_EQ(ReadFileBytes(wal_path), full);
  std::remove(wal_path.c_str());
}

// A cluster over a wal_dir persists every replica's applied log, byte
// for byte its primary's. Primaries keep their log in memory only, so a
// second cluster over the same directory would start each primary at
// offset 0 while its replica resumed ahead of it — and the router's gate
// would then accept that replica's answers (its epoch tag is past the
// committed offset) from commits the new cluster never made. Create must
// refuse instead.
TEST(ClusterWalDirTest, PersistsReplicaLogsAndRefusesLogsAheadOfPrimary) {
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.replicas_per_shard = 2;
  opts.heartbeat_interval_ms = 2;
  opts.receiver.dial_retry_ms = 1;
  opts.wal_dir = ::testing::TempDir() + "/cluster_wal_dir";
  std::filesystem::remove_all(opts.wal_dir);
  std::filesystem::create_directories(opts.wal_dir);

  KnowledgeGraph base;
  base.AddTriple("seed", "links", "root", NodeKind::kEntity,
                 NodeKind::kEntity, kProv);
  std::vector<std::string> primary_logs;
  {
    auto cluster = Cluster::Create(base, opts);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    ASSERT_TRUE((*cluster)->Apply(SomeMutations(5, 1)).ok());
    ASSERT_TRUE((*cluster)->WaitForCatchUp(5000));
    for (size_t s = 0; s < opts.num_shards; ++s) {
      primary_logs.push_back(LogBytes((*cluster)->primary(s).log()));
      ASSERT_FALSE(primary_logs.back().empty()) << "shard " << s;
    }
  }
  for (size_t s = 0; s < opts.num_shards; ++s) {
    for (size_t r = 0; r < opts.replicas_per_shard; ++r) {
      EXPECT_EQ(ReadFileBytes(opts.wal_dir + "/s" + std::to_string(s) +
                              "r" + std::to_string(r) + ".wal"),
                primary_logs[s])
          << "s" << s << "r" << r;
    }
  }

  // The first cluster wrote node101 -> node102. A second cluster over the
  // same logs must not come up: with its primary down, its replica would
  // answer node101 from the old log and miss what this cluster commits.
  auto again = Cluster::Create(base, opts);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition)
      << again.status();
  std::filesystem::remove_all(opts.wal_dir);
}

// The supervisor's job: a receiver that exhausted its dial budget while
// the primary was down is restarted once the watchdog sees it, and the
// link catches up — no manual intervention.
TEST(SupervisorTest, RestartsExhaustedLinkAfterPrimaryRevival) {
  ClusterOptions opts;
  opts.num_shards = 1;
  opts.replicas_per_shard = 1;
  opts.heartbeat_interval_ms = 2;
  opts.receiver.heartbeat_timeout_ms = 100;
  opts.receiver.dial_retry_ms = 1;
  opts.receiver.max_dial_attempts = 3;
  opts.supervisor.interval_ms = 5;

  KnowledgeGraph base;
  base.AddTriple("seed", "links", "root", NodeKind::kEntity,
                 NodeKind::kEntity, kProv);
  auto cluster = Cluster::Create(base, opts);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->WaitForCatchUp(5000));

  (*cluster)->KillPrimary(0);
  // Three failed dials at 1ms apart: the receiver thread gives up.
  ASSERT_TRUE(WaitUntil(5000, [&] {
    return !(*cluster)->replica(0, 0).receiver().running();
  }));

  ASSERT_TRUE((*cluster)->RevivePrimary(0).ok());
  std::vector<Mutation> batch = SomeMutations(4);
  ASSERT_TRUE((*cluster)->Apply(batch).ok());
  // The supervisor notices the dead link and restarts it; the new
  // session resumes from the persisted offset and converges.
  ASSERT_TRUE((*cluster)->WaitForCatchUp(5000));
  EXPECT_GT((*cluster)->supervisor().restarts(), 0u);
  EXPECT_EQ((*cluster)->MaxReplicaLagBytes(), 0u);
}

// Failover serving from shipped state only: kill every primary after
// catch-up; answers must equal a single-store reference byte-for-byte.
TEST(ClusterFailoverTest, ReplicasServeExactShippedState) {
  KnowledgeGraph base;
  for (int i = 0; i < 12; ++i) {
    base.AddTriple("n" + std::to_string(i), "links",
                   "n" + std::to_string((i * 5 + 1) % 12), NodeKind::kEntity,
                   NodeKind::kEntity, kProv);
  }
  auto reference = store::VersionedKgStore::Open(base, {});
  ASSERT_TRUE(reference.ok());

  ClusterOptions opts;
  opts.num_shards = 2;
  opts.replicas_per_shard = 1;
  opts.heartbeat_interval_ms = 2;
  opts.receiver.dial_retry_ms = 1;
  auto cluster = Cluster::Create(base, opts);
  ASSERT_TRUE(cluster.ok());

  const std::vector<Mutation> batch = SomeMutations(6);
  ASSERT_TRUE((*reference)->ApplyBatch(batch).ok());
  ASSERT_TRUE((*cluster)->Apply(batch).ok());
  ASSERT_TRUE((*cluster)->WaitForCatchUp(5000));
  for (size_t s = 0; s < opts.num_shards; ++s) (*cluster)->KillPrimary(s);

  std::vector<Query> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(Query::PointLookup("n" + std::to_string(i), "links"));
    queries.push_back(Query::Neighborhood("n" + std::to_string(i)));
    queries.push_back(Query::TopKRelated("n" + std::to_string(i), 5));
  }
  for (const Query& q : queries) {
    auto expected = (*reference)->TryExecute(q);
    auto actual = (*cluster)->Execute(q);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(*actual, *expected);
  }
  EXPECT_GT((*cluster)->router().stats().failovers, 0u);
  EXPECT_EQ((*cluster)->router().stats().shed, 0u);
}

}  // namespace
}  // namespace kg::cluster
