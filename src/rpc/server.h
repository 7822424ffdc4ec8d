#ifndef KGRAPH_RPC_SERVER_H_
#define KGRAPH_RPC_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "rpc/frame.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace kg::store {
class VersionedKgStore;
}  // namespace kg::store

namespace kg::obs {
class SlowQueryRing;
class Tracer;
}  // namespace kg::obs

namespace kg::rpc {

/// What the server fronts: anything that can answer a serve::Query with
/// a Result. Must be thread-safe (worker threads call it concurrently);
/// both QueryEngine and VersionedKgStore read paths are.
using QueryHandler =
    std::function<Result<serve::QueryResult>(const serve::Query&)>;

/// Handler over an immutable serving engine (TryExecute: answers carry
/// the schema-version gate).
QueryHandler EngineHandler(const serve::QueryEngine* engine);

/// Handler over a mutable versioned store (TryExecute against the
/// current epoch; writers keep publishing underneath).
QueryHandler StoreHandler(const store::VersionedKgStore* store);

/// What a replication-enabled server streams to kWalSubscribe
/// subscribers: an append-only log of WAL records (the kg::AppendRecord
/// envelope, one record per commit) with a running Checksum32 chain over
/// whole records, so a subscriber can prove its replayed prefix is
/// byte-identical to the primary's before serving from it.
///
/// Offsets are byte offsets into the log; a "boundary" is an offset
/// that starts a record (or the log end). Implementations must be
/// thread-safe: the event loop reads while the owner appends.
class WalSource {
 public:
  virtual ~WalSource() = default;

  /// Current log end (a boundary by construction).
  virtual uint64_t EndOffset() const = 0;

  /// True when `offset` is a record boundary (0 and EndOffset included).
  virtual bool IsBoundary(uint64_t offset) const = 0;

  /// Chain value at boundary `offset`: 0 at offset 0, then
  /// chain' = Checksum32(le32(chain) ++ record_bytes) per record.
  virtual uint32_t ChainAt(uint64_t offset) const = 0;

  /// Copies whole records from boundary `offset`, at most `max_bytes`
  /// (always at least one record when any exists). Writes the boundary
  /// after the last copied record to `*end_offset` and the chain value
  /// there to `*chain_after`.
  virtual std::string ReadFrom(uint64_t offset, size_t max_bytes,
                               uint64_t* end_offset,
                               uint32_t* chain_after) const = 0;
};

struct RpcServerOptions {
  /// Threads executing queries (the event loop and acceptor are extra).
  size_t worker_threads = 2;
  /// Admission control: a connection may have at most this many
  /// requests queued or executing; the excess is shed immediately with
  /// kUnavailable instead of building an unbounded backlog.
  size_t max_queue_per_connection = 64;
  /// Global in-flight cap across all connections — the server's
  /// load-shedding horizon.
  size_t max_inflight = 256;
  /// Schema generation of the snapshot being served; the handshake
  /// refuses clients that cannot consume it.
  uint32_t schema_version = serve::kSnapshotSchemaVersion;
  /// "rpc.*" counters/gauges/histograms land here when non-null (not
  /// owned; must outlive the server): accepted/active connections,
  /// accepted/shed requests, frame errors, inflight, and per-class
  /// "rpc.latency_us.<class>" wire latency.
  obs::MetricsRegistry* registry = nullptr;
  /// WAL log served to kWalSubscribe subscribers; null refuses
  /// subscriptions with kFailedPrecondition. Not owned; must outlive
  /// the server.
  WalSource* wal_source = nullptr;
  /// Heartbeat cadence on idle subscriptions (the replica's liveness
  /// signal; its receiver treats several missed intervals as a dead
  /// primary and reconnects).
  int wal_heartbeat_interval_ms = 25;
  /// Largest kWalBatch frame payload; bigger backlogs ship as several
  /// batches across event-loop passes, and a larger record ships alone.
  size_t wal_batch_max_bytes = 256 * 1024;
  /// Distributed tracing (not owned; must outlive the server). Each
  /// accepted query gets a "serve.<class>" span — rooted at the wire
  /// trace context when the request carries a sampled one, a local root
  /// otherwise — and kIntrospect(kTrace) dumps this tracer.
  obs::Tracer* tracer = nullptr;
  /// Worst-N slow-request retention fed per accepted query (not owned);
  /// kIntrospect(kSlowQueries) exposes it.
  obs::SlowQueryRing* slow_ring = nullptr;
};

/// Multi-connection RPC front-end over an ITransportServer:
///
///   acceptor thread --> connection table --> event-loop thread
///       (one non-blocking TryRead poll pass over every connection,
///        frames decoded incrementally, admission decided inline)
///   --> bounded work queue --> worker pool --> handler --> response
///
/// Contract highlights, in the order the wire sees them:
///   - First message on a connection must be a handshake; the server
///     refuses (kUnavailable) clients whose supported snapshot schema
///     is older than what it serves, so version skew fails loudly at
///     connect time, not as garbage answers later.
///   - Backpressure is load-shedding, not buffering: past the bounded
///     per-connection queue or the global in-flight cap, a request gets
///     an immediate kUnavailable response — retriable by contract, so
///     client RetryWithBackoff + CircuitBreaker apply unchanged across
///     the wire.
///   - A framing error (bad checksum, wrong version, unknown type) is
///     unrecoverable mid-stream: the connection is dropped. Malformed
///     *bodies* inside valid frames get clean kInvalidArgument
///     responses. Neither ever crashes the server (rpc_frame_fuzz_test,
///     rpc_chaos_test).
class RpcServer {
 public:
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t requests_accepted = 0;
    uint64_t requests_shed = 0;
    uint64_t frame_errors = 0;
  };

  RpcServer(QueryHandler handler,
            std::unique_ptr<ITransportServer> listener,
            RpcServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Spawns the acceptor, event loop, and workers. Call once.
  Status Start();

  /// Stops accepting, closes every connection, joins every thread.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Graceful shutdown: stops accepting new connections, lets queued
  /// and in-flight requests finish (bounded by `max_wait_ms`), then
  /// Stop()s. This is what a SIGTERM handler should call — no request
  /// that was admitted dies mid-frame (examples/rpc_server.cpp).
  void Drain(int max_wait_ms = 5000);

  std::string address() const { return listener_->address(); }

  Stats stats() const;

 private:
  struct Connection;
  struct Task;
  struct Impl;

  void AcceptLoop();
  void EventLoop();
  /// One pass over subscribed connections: pushes a kWalBatch where the
  /// log has grown past the subscriber, a kWalHeartbeat where it has
  /// been idle past the interval. Returns true when anything was sent.
  bool ServeSubscriptions(
      const std::vector<std::shared_ptr<Connection>>& conns);
  void WorkerLoop();
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   Frame&& frame);
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     MessageType type, uint32_t request_id,
                     std::string_view body,
                     const TraceContext* trace = nullptr);

  std::unique_ptr<Impl> impl_;
  std::unique_ptr<ITransportServer> listener_;
};

}  // namespace kg::rpc

#endif  // KGRAPH_RPC_SERVER_H_
