#ifndef KGRAPH_RPC_CLIENT_H_
#define KGRAPH_RPC_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "rpc/frame.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace kg::rpc {

struct RpcClientOptions {
  /// Newest snapshot schema generation this client can consume; the
  /// handshake refuses (kUnavailable) servers serving something newer.
  uint32_t max_schema_version = serve::kSnapshotSchemaVersion;
  /// Per-response wall-clock wait. A frame lost on the wire (chaos, dead
  /// server) turns into kUnavailable after this long instead of a hung
  /// read; -1 blocks until the stream closes.
  int read_timeout_ms = 2000;
};

/// One frame a subscribed server pushes: a shipped batch (with the trace
/// context the server attached, if any) or a heartbeat.
struct WalPush {
  MessageType type = MessageType::kWalHeartbeat;  ///< Or kWalBatch.
  WalBatch batch;          ///< For kWalBatch; its code is always OK.
  WalHeartbeat heartbeat;  ///< For kWalHeartbeat.
  bool has_trace = false;
  TraceContext trace;
};

/// Synchronous client for one connection, the one client-side speaker of
/// the protocol: Handshake once, then Execute serially (or Subscribe and
/// read the pushed WAL stream). Every failure mode the wire can produce —
/// refused handshake, shed request, lost or garbled response, closed
/// stream, timeout — surfaces as a Status, and the retriable ones all map
/// to kUnavailable so RetryWithBackoff treats local and remote failures
/// identically. Not thread-safe; use one RpcClient per thread.
class RpcClient {
 public:
  explicit RpcClient(std::unique_ptr<ITransport> transport,
                     RpcClientOptions options = {});

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Negotiates schema versions. Must succeed before Execute; returns
  /// the server's schema version, or kUnavailable when the server
  /// serves a newer generation than options.max_schema_version.
  Result<uint32_t> Handshake();

  /// Sends one query and waits for its response (request-id
  /// correlated; stale responses from abandoned requests are skipped).
  /// A non-OK response status is returned as that status. A non-null
  /// `trace` rides the frame's trace-context extension, so the server's
  /// spans join the caller's trace tree.
  Result<serve::QueryResult> Execute(const serve::Query& query,
                                     const TraceContext* trace = nullptr);

  /// Scrapes one of the server's live observability surfaces (metrics
  /// exposition, slow-query ring, trace dump). A non-OK response status
  /// is returned as that status.
  Result<std::string> Introspect(IntrospectWhat what);

  /// Subscribes to the server's WAL from frame boundary `from_offset`; a
  /// non-null `trace` rides the subscribe frame and comes back on every
  /// batch. The server then pushes a heartbeat acknowledging it, a batch
  /// whenever its log grows, and a heartbeat while it stays idle.
  Status Subscribe(uint64_t from_offset, const TraceContext* trace = nullptr);

  /// Reads the next pushed frame, timing out once options.read_timeout_ms
  /// pass without a byte arriving (a large batch still streaming in is not
  /// timed out). A timeout with no partial frame buffered returns
  /// kUnavailable and leaves the client healthy. A refused subscription returns the server's status
  /// (kFailedPrecondition or kInvalidArgument, never kUnavailable) and
  /// breaks the client: the server closes the stream after refusing.
  Result<WalPush> ReadWalPush();

  /// False once the stream has broken (framing error, closed transport,
  /// failed handshake). A broken client never recovers; reconnect.
  bool healthy() const { return healthy_; }

  /// True once Handshake completed. A healthy but never-handshook
  /// client (its handshake response was lost in flight) cannot serve
  /// queries and should be reconnected.
  bool handshook() const { return handshook_; }

 private:
  /// Writes one request frame under the next request id and returns it.
  Result<uint32_t> Send(MessageType type, const TraceContext* trace,
                        std::string_view body);

  /// Reads frames until one with `request_id` arrives, the timeout
  /// expires, or the stream breaks. Frames with older request ids are
  /// stale (their request was abandoned after a lost response) and are
  /// skipped; kAnyRequest takes the next frame whatever its id.
  static constexpr uint32_t kAnyRequest = 0;  // Request ids start at 1.
  Result<Frame> ReadResponse(uint32_t request_id);

  /// The path every request shares: Send, await the `response_type`
  /// frame answering it, and Decode its body.
  template <typename Response>
  Result<Response> Call(MessageType type, const TraceContext* trace,
                        std::string_view body, MessageType response_type,
                        Result<Response> (*decode)(std::string_view));

  /// A body that does not decode breaks the stream.
  template <typename Message>
  Result<Message> Decode(const Frame& frame,
                         Result<Message> (*decode)(std::string_view));

  /// Marks the stream broken, closes it, and returns kUnavailable(why).
  Status Break(std::string why);

  std::unique_ptr<ITransport> transport_;
  RpcClientOptions options_;
  FrameDecoder decoder_;
  uint32_t next_request_id_ = 1;
  bool subscribed_ = false;
  bool handshook_ = false;
  bool healthy_ = true;
};

/// How RetryingClient reaches the server: returns a fresh connected
/// transport, or a Status when the dial itself fails.
using TransportFactory =
    std::function<Result<std::unique_ptr<ITransport>>()>;

/// Wraps a transport factory with dial-time chaos: the `attempt`-th
/// dial consults `injector->Probe(channel + "/connect", attempt)`, and
/// a transient or terminal fault refuses the connection with
/// kUnavailable — a dead or unreachable peer, without real process
/// death — so failover paths (RetryingClient reconnects, cluster
/// primary→replica routing) can be exercised deterministically.
/// Successful dials pass through `inner` untouched; compose with
/// ChaosTransport inside `inner` for stream-level faults. The injector
/// must outlive the returned factory.
TransportFactory ChaosConnectFactory(TransportFactory inner,
                                     const FaultInjector* injector,
                                     std::string channel);

/// RpcClient wrapped in the repo's standard resilience machinery:
/// RetryWithBackoff over kUnavailable (virtual-time backoff, seeded
/// jitter) plus a CircuitBreaker, reconnecting through the factory
/// whenever the stream breaks. This is the piece rpc_chaos_test leans
/// on: under dropped/garbled/slow frames it either converges to the
/// correct answer or degrades to a clean terminal status,
/// deterministically per seed.
class RetryingClient {
 public:
  struct Stats {
    uint64_t attempts = 0;    ///< Individual wire attempts made.
    uint64_t reconnects = 0;  ///< Fresh transports dialed.
    double virtual_ms = 0.0;  ///< Backoff consumed (virtual time).
  };

  RetryingClient(TransportFactory factory, RetryPolicy policy,
                 uint64_t jitter_seed, RpcClientOptions options = {});

  RetryingClient(const RetryingClient&) = delete;
  RetryingClient& operator=(const RetryingClient&) = delete;

  /// Executes with retries. Returns the final answer, or the terminal
  /// status once retries are exhausted, the breaker opens, or a
  /// non-retriable status (e.g. kInvalidArgument) comes back. A
  /// non-null `trace` is attached to every wire attempt.
  Result<serve::QueryResult> Execute(const serve::Query& query,
                                     const TraceContext* trace = nullptr);

  const Stats& stats() const { return stats_; }
  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  TransportFactory factory_;
  RetryPolicy policy_;
  RpcClientOptions options_;
  Rng rng_;
  CircuitBreaker breaker_;
  std::unique_ptr<RpcClient> client_;
  Stats stats_;
};

}  // namespace kg::rpc

#endif  // KGRAPH_RPC_CLIENT_H_
