#include "rpc/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/introspect.h"
#include "obs/trace.h"
#include "store/versioned_store.h"

namespace kg::rpc {

namespace {
/// One poll pass reads at most this many bytes per connection, so a
/// firehose connection cannot starve its neighbors inside a pass.
constexpr size_t kReadChunkBytes = 64 * 1024;
/// Event-loop nap when a full pass over every connection read nothing.
constexpr auto kIdleNap = std::chrono::microseconds(200);
}  // namespace

QueryHandler EngineHandler(const serve::QueryEngine* engine) {
  return [engine](const serve::Query& query) {
    return engine->TryExecute(query);
  };
}

QueryHandler StoreHandler(const store::VersionedKgStore* store) {
  return [store](const serve::Query& query) {
    return store->TryExecute(query);
  };
}

struct RpcServer::Connection {
  explicit Connection(std::unique_ptr<ITransport> t)
      : transport(std::move(t)) {}

  std::unique_ptr<ITransport> transport;
  FrameDecoder decoder;
  bool handshook = false;
  /// WAL subscription state; owned by the event-loop thread (HandleFrame
  /// and ServeSubscriptions both run there, so no lock is needed).
  bool subscribed = false;
  uint64_t sub_offset = 0;
  uint32_t sub_request_id = 0;
  /// Trace context the subscriber sent on its kWalSubscribe; echoed (or
  /// extended with a "wal.ship" span) on every kWalBatch pushed to it,
  /// so shipped batches join the replica's trace tree across the wire.
  bool sub_traced = false;
  TraceContext sub_trace;
  std::chrono::steady_clock::time_point last_push{};
  std::atomic<bool> closed{false};
  /// Requests queued or executing on this connection (admission bound).
  std::atomic<size_t> queued{0};
  /// Serializes response writes (workers and the event loop interleave).
  std::mutex write_mu;
};

struct RpcServer::Task {
  std::shared_ptr<Connection> conn;
  uint32_t request_id = 0;
  serve::Query query;
  std::chrono::steady_clock::time_point received;
  /// Server-side request span ("serve.<class>"), inert without a
  /// tracer; ends after the response is written.
  obs::Span span;
  /// Trace identity for the slow-query ring: the wire trace id when the
  /// request carried one, else the local span id.
  uint64_t trace_id = 0;
  /// Admission order, for deterministic slow-ring tie-breaks.
  uint64_t seq = 0;
  /// Stage time already spent on the event loop before queuing.
  double admission_us = 0.0;
  double decode_us = 0.0;
};

struct RpcServer::Impl {
  QueryHandler handler;
  RpcServerOptions options;

  std::atomic<bool> running{false};
  std::thread acceptor;
  std::thread event_loop;
  std::vector<std::thread> workers;

  std::mutex conns_mu;
  std::vector<std::shared_ptr<Connection>> conns;

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Task> queue;

  std::atomic<size_t> inflight{0};

  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_accepted{0};
  std::atomic<uint64_t> requests_shed{0};
  std::atomic<uint64_t> frame_errors{0};

  // Pre-resolved registry handles (all null without a registry):
  // registration locks once at Start, never per frame.
  obs::Counter* m_accepted_conns = nullptr;
  obs::Counter* m_accepted_reqs = nullptr;
  obs::Counter* m_shed = nullptr;
  obs::Counter* m_frame_errors = nullptr;
  obs::Gauge* m_active_conns = nullptr;
  obs::Gauge* m_inflight = nullptr;
  std::array<obs::Histogram*, serve::kNumQueryKinds> m_latency_us{};
  // Per-class stage attribution for the four server-owned stages; the
  // engine/store stages (cache probe, WAL append, overlay merge) are
  // observed by their own layers into the same registry.
  std::array<obs::Histogram*, serve::kNumQueryKinds> m_stage_admission{};
  std::array<obs::Histogram*, serve::kNumQueryKinds> m_stage_decode{};
  std::array<obs::Histogram*, serve::kNumQueryKinds> m_stage_queue_wait{};
  std::array<obs::Histogram*, serve::kNumQueryKinds> m_stage_execute{};

  /// Admission order of accepted queries (slow-ring tie-break key).
  std::atomic<uint64_t> admission_seq{0};
};

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

RpcServer::RpcServer(QueryHandler handler,
                     std::unique_ptr<ITransportServer> listener,
                     RpcServerOptions options)
    : impl_(std::make_unique<Impl>()), listener_(std::move(listener)) {
  impl_->handler = std::move(handler);
  impl_->options = options;
}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  if (impl_->running.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  if (auto* registry = impl_->options.registry) {
    impl_->m_accepted_conns =
        &registry->GetCounter("rpc.connections.accepted");
    impl_->m_accepted_reqs = &registry->GetCounter("rpc.requests.accepted");
    impl_->m_shed = &registry->GetCounter("rpc.requests.shed");
    impl_->m_frame_errors = &registry->GetCounter("rpc.frame_errors");
    impl_->m_active_conns = &registry->GetGauge("rpc.connections.active");
    impl_->m_inflight = &registry->GetGauge("rpc.inflight");
    for (size_t k = 0; k < serve::kNumQueryKinds; ++k) {
      const char* kind_name =
          serve::QueryKindName(static_cast<serve::QueryKind>(k));
      impl_->m_latency_us[k] = &registry->GetHistogram(
          std::string("rpc.latency_us.") + kind_name,
          obs::LatencyBucketsUs());
      impl_->m_stage_admission[k] = &obs::StageHistogram(
          *registry, obs::Stage::kAdmission, kind_name);
      impl_->m_stage_decode[k] =
          &obs::StageHistogram(*registry, obs::Stage::kDecode, kind_name);
      impl_->m_stage_queue_wait[k] = &obs::StageHistogram(
          *registry, obs::Stage::kQueueWait, kind_name);
      impl_->m_stage_execute[k] = &obs::StageHistogram(
          *registry, obs::Stage::kEngineExecute, kind_name);
    }
  }
  impl_->acceptor = std::thread([this] { AcceptLoop(); });
  impl_->event_loop = std::thread([this] { EventLoop(); });
  const size_t workers = std::max<size_t>(1, impl_->options.worker_threads);
  impl_->workers.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void RpcServer::Drain(int max_wait_ms) {
  if (!impl_->running.load(std::memory_order_acquire)) return;
  // New connections stop here; established ones keep their streams so
  // in-flight responses still go out.
  listener_->Shutdown();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(max_wait_ms < 0 ? 0
                                                                  : max_wait_ms);
  for (;;) {
    bool queue_empty;
    {
      std::lock_guard<std::mutex> lock(impl_->queue_mu);
      queue_empty = impl_->queue.empty();
    }
    if (queue_empty &&
        impl_->inflight.load(std::memory_order_acquire) == 0) {
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Stop();
}

void RpcServer::Stop() {
  {
    // Under queue_mu, so no worker misses the notify below.
    std::lock_guard<std::mutex> lock(impl_->queue_mu);
    if (!impl_->running.exchange(false)) return;
  }
  listener_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(impl_->conns_mu);
    for (auto& conn : impl_->conns) {
      conn->closed.store(true, std::memory_order_release);
      conn->transport->Close();
    }
  }
  impl_->queue_cv.notify_all();
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  if (impl_->event_loop.joinable()) impl_->event_loop.join();
  for (auto& worker : impl_->workers) {
    if (worker.joinable()) worker.join();
  }
  impl_->workers.clear();
  {
    // Tasks still queued die with their connections: the transports are
    // closed, so clients see kUnavailable, the retriable signal.
    std::lock_guard<std::mutex> lock(impl_->queue_mu);
    impl_->queue.clear();
  }
}

RpcServer::Stats RpcServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      impl_->connections_accepted.load(std::memory_order_relaxed);
  stats.requests_accepted =
      impl_->requests_accepted.load(std::memory_order_relaxed);
  stats.requests_shed =
      impl_->requests_shed.load(std::memory_order_relaxed);
  stats.frame_errors = impl_->frame_errors.load(std::memory_order_relaxed);
  return stats;
}

void RpcServer::AcceptLoop() {
  while (impl_->running.load(std::memory_order_acquire)) {
    auto accepted = listener_->Accept();
    if (!accepted.ok()) {
      if (!impl_->running.load(std::memory_order_acquire)) return;
      // kCancelled means Shutdown(); anything else is a listener
      // failure — either way there is nothing to serve on.
      return;
    }
    impl_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    if (impl_->m_accepted_conns) impl_->m_accepted_conns->Inc();
    std::lock_guard<std::mutex> lock(impl_->conns_mu);
    impl_->conns.push_back(
        std::make_shared<Connection>(std::move(*accepted)));
    if (impl_->m_active_conns) {
      impl_->m_active_conns->Set(static_cast<int64_t>(impl_->conns.size()));
    }
  }
}

void RpcServer::EventLoop() {
  std::string chunk;
  while (impl_->running.load(std::memory_order_acquire)) {
    std::vector<std::shared_ptr<Connection>> snapshot;
    {
      std::lock_guard<std::mutex> lock(impl_->conns_mu);
      snapshot = impl_->conns;
    }
    bool did_work = false;
    bool any_closed = false;
    for (const auto& conn : snapshot) {
      if (conn->closed.load(std::memory_order_acquire)) {
        any_closed = true;
        continue;
      }
      chunk.clear();
      auto read = conn->transport->TryRead(&chunk, kReadChunkBytes);
      if (!read.ok()) {
        conn->closed.store(true, std::memory_order_release);
        any_closed = true;
        continue;
      }
      if (*read == 0) continue;
      did_work = true;
      conn->decoder.Feed(chunk);
      Frame frame;
      FrameDecoder::Step step;
      while ((step = conn->decoder.Next(&frame)) ==
             FrameDecoder::Step::kFrame) {
        HandleFrame(conn, std::move(frame));
        if (conn->closed.load(std::memory_order_acquire)) break;
      }
      if (step == FrameDecoder::Step::kError) {
        // Framing is gone; nothing sent on this stream can be trusted
        // or answered. Drop the connection — the client sees
        // kUnavailable and retries elsewhere.
        impl_->frame_errors.fetch_add(1, std::memory_order_relaxed);
        if (impl_->m_frame_errors) impl_->m_frame_errors->Inc();
        conn->closed.store(true, std::memory_order_release);
        conn->transport->Close();
        any_closed = true;
      }
    }
    if (impl_->options.wal_source != nullptr &&
        ServeSubscriptions(snapshot)) {
      did_work = true;
    }
    if (any_closed) {
      std::lock_guard<std::mutex> lock(impl_->conns_mu);
      std::erase_if(impl_->conns, [](const auto& conn) {
        return conn->closed.load(std::memory_order_acquire) &&
               conn->queued.load(std::memory_order_acquire) == 0;
      });
      if (impl_->m_active_conns) {
        impl_->m_active_conns->Set(
            static_cast<int64_t>(impl_->conns.size()));
      }
    }
    if (!did_work) std::this_thread::sleep_for(kIdleNap);
  }
}

bool RpcServer::ServeSubscriptions(
    const std::vector<std::shared_ptr<Connection>>& conns) {
  WalSource* log = impl_->options.wal_source;
  const auto now = std::chrono::steady_clock::now();
  const auto heartbeat =
      std::chrono::milliseconds(impl_->options.wal_heartbeat_interval_ms);
  bool sent = false;
  for (const auto& conn : conns) {
    if (!conn->subscribed || conn->closed.load(std::memory_order_acquire)) {
      continue;
    }
    const uint64_t end = log->EndOffset();
    if (end > conn->sub_offset) {
      WalBatch batch;
      batch.start_offset = conn->sub_offset;
      batch.frames =
          log->ReadFrom(conn->sub_offset, impl_->options.wal_batch_max_bytes,
                        &batch.end_offset, &batch.chain_after);
      batch.log_end = std::max(end, batch.end_offset);
      // A traced subscription gets its context back on every batch —
      // extended through a server-side "wal.ship" span when a tracer is
      // configured, echoed verbatim otherwise — so the receiver can
      // parent its apply span under the ship that produced the bytes.
      TraceContext ship_ctx = conn->sub_trace;
      obs::Span ship;
      if (conn->sub_traced && conn->sub_trace.sampled) {
        ship = obs::Tracer::StartWithParent(impl_->options.tracer,
                                            conn->sub_trace.parent_span_id,
                                            "wal.ship");
        if (ship.active()) {
          ship.SetAttr("start_offset", batch.start_offset);
          ship.SetAttr("end_offset", batch.end_offset);
          ship_ctx.parent_span_id = ship.id();
        }
      }
      WriteResponse(conn, MessageType::kWalBatch, conn->sub_request_id,
                    EncodeWalBatch(batch),
                    conn->sub_traced ? &ship_ctx : nullptr);
      conn->sub_offset = batch.end_offset;
      conn->last_push = now;
      sent = true;
    } else if (now - conn->last_push >= heartbeat) {
      WalHeartbeat hb;
      hb.log_end = end;
      hb.chain_at_end = log->ChainAt(end);
      WriteResponse(conn, MessageType::kWalHeartbeat, conn->sub_request_id,
                    EncodeWalHeartbeat(hb));
      conn->last_push = now;
      sent = true;
    }
  }
  return sent;
}

void RpcServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                              MessageType type, uint32_t request_id,
                              std::string_view body,
                              const TraceContext* trace) {
  std::string frame;
  AppendFrame(&frame, type, request_id, trace, body);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_acquire)) return;
  if (!conn->transport->Write(frame).ok()) {
    conn->closed.store(true, std::memory_order_release);
  }
}

void RpcServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                            Frame&& frame) {
  switch (frame.type) {
    case MessageType::kHandshakeRequest: {
      HandshakeResponse resp;
      resp.schema_version = impl_->options.schema_version;
      auto req = DecodeHandshakeRequest(frame.body);
      if (!req.ok()) {
        resp.code = req.status().code();
        resp.message = req.status().message();
      } else if (req->max_schema_version < impl_->options.schema_version) {
        // The client cannot consume what this server serves. Refuse
        // retriably: an older replica may still speak its dialect.
        resp.code = StatusCode::kUnavailable;
        resp.message = "serving snapshot schema version " +
                       std::to_string(impl_->options.schema_version) +
                       " is newer than client supports (" +
                       std::to_string(req->max_schema_version) + ")";
      } else {
        conn->handshook = true;
      }
      WriteResponse(conn, MessageType::kHandshakeResponse, frame.request_id,
                    EncodeHandshakeResponse(resp));
      if (!conn->handshook) {
        conn->closed.store(true, std::memory_order_release);
        conn->transport->Close();
      }
      return;
    }
    case MessageType::kQueryRequest: {
      const auto t_admit = std::chrono::steady_clock::now();
      if (!conn->handshook) {
        QueryResponse resp;
        resp.code = StatusCode::kFailedPrecondition;
        resp.message = "query before handshake";
        WriteResponse(conn, MessageType::kQueryResponse, frame.request_id,
                      EncodeQueryResponse(resp));
        conn->closed.store(true, std::memory_order_release);
        conn->transport->Close();
        return;
      }
      // Admission control: shed rather than queue without bound. The
      // response goes out on the event-loop thread immediately, so an
      // overloaded server stays responsive about being overloaded.
      const size_t inflight =
          impl_->inflight.load(std::memory_order_acquire);
      const size_t queued = conn->queued.load(std::memory_order_acquire);
      if (inflight >= impl_->options.max_inflight ||
          queued >= impl_->options.max_queue_per_connection) {
        impl_->requests_shed.fetch_add(1, std::memory_order_relaxed);
        if (impl_->m_shed) impl_->m_shed->Inc();
        QueryResponse resp;
        resp.code = StatusCode::kUnavailable;
        resp.message =
            inflight >= impl_->options.max_inflight
                ? "server overloaded: global in-flight limit"
                : "server overloaded: per-connection queue limit";
        WriteResponse(conn, MessageType::kQueryResponse, frame.request_id,
                      EncodeQueryResponse(resp));
        return;
      }
      const auto t_decode = std::chrono::steady_clock::now();
      auto query = DecodeQuery(frame.body);
      if (!query.ok()) {
        // The frame was well-formed (checksum passed) but the body is
        // not a query: a client bug, answered cleanly, not a stream
        // corruption worth killing the connection over.
        QueryResponse resp;
        resp.code = query.status().code();
        resp.message = query.status().message();
        WriteResponse(conn, MessageType::kQueryResponse, frame.request_id,
                      EncodeQueryResponse(resp));
        return;
      }
      const auto t_queued = std::chrono::steady_clock::now();
      impl_->requests_accepted.fetch_add(1, std::memory_order_relaxed);
      if (impl_->m_accepted_reqs) impl_->m_accepted_reqs->Inc();
      impl_->inflight.fetch_add(1, std::memory_order_acq_rel);
      if (impl_->m_inflight) impl_->m_inflight->Add(1);
      conn->queued.fetch_add(1, std::memory_order_acq_rel);
      Task task;
      task.conn = conn;
      task.request_id = frame.request_id;
      task.query = std::move(*query);
      task.received = t_queued;
      task.seq = impl_->admission_seq.fetch_add(1, std::memory_order_relaxed);
      task.admission_us = ElapsedUs(t_admit, t_decode);
      task.decode_us = ElapsedUs(t_decode, t_queued);
      if (obs::Tracer* tracer = impl_->options.tracer;
          tracer != nullptr && (!frame.has_trace || frame.trace.sampled)) {
        // Sampled wire context roots the span under the remote caller's
        // span; a context-free request starts a server-local trace.
        task.span = obs::Tracer::StartWithParent(
            tracer, frame.has_trace ? frame.trace.parent_span_id : 0,
            std::string("serve.") + serve::QueryKindName(task.query.kind));
      }
      task.trace_id =
          frame.has_trace ? frame.trace.trace_id : task.span.id();
      {
        std::lock_guard<std::mutex> lock(impl_->queue_mu);
        impl_->queue.push_back(std::move(task));
      }
      impl_->queue_cv.notify_one();
      return;
    }
    case MessageType::kWalSubscribe: {
      // The subscription answer rides the kWalBatch shape either way:
      // a refusal is a non-OK batch, acceptance is an immediate
      // heartbeat (the ack carrying the log end) followed by batches
      // from ServeSubscriptions as the log grows.
      WalBatch refusal;
      auto req = DecodeWalSubscribe(frame.body);
      WalSource* log = impl_->options.wal_source;
      if (!conn->handshook) {
        refusal.code = StatusCode::kFailedPrecondition;
        refusal.message = "subscribe before handshake";
      } else if (log == nullptr) {
        refusal.code = StatusCode::kFailedPrecondition;
        refusal.message = "no wal behind this server";
      } else if (!req.ok()) {
        refusal.code = req.status().code();
        refusal.message = req.status().message();
      } else if (req->from_offset > log->EndOffset() ||
                 !log->IsBoundary(req->from_offset)) {
        refusal.code = StatusCode::kInvalidArgument;
        refusal.message = "subscribe offset " +
                          std::to_string(req->from_offset) +
                          " is not a record boundary of this log";
      } else {
        conn->subscribed = true;
        conn->sub_offset = req->from_offset;
        conn->sub_request_id = frame.request_id;
        if (frame.has_trace) {
          conn->sub_traced = true;
          conn->sub_trace = frame.trace;
        }
        conn->last_push = std::chrono::steady_clock::now();
        WalHeartbeat ack;
        ack.log_end = log->EndOffset();
        ack.chain_at_end = log->ChainAt(ack.log_end);
        WriteResponse(conn, MessageType::kWalHeartbeat, frame.request_id,
                      EncodeWalHeartbeat(ack));
        return;
      }
      WriteResponse(conn, MessageType::kWalBatch, frame.request_id,
                    EncodeWalBatch(refusal));
      conn->closed.store(true, std::memory_order_release);
      conn->transport->Close();
      return;
    }
    case MessageType::kIntrospectRequest: {
      IntrospectResponse resp;
      if (!conn->handshook) {
        resp.code = StatusCode::kFailedPrecondition;
        resp.message = "introspect before handshake";
        WriteResponse(conn, MessageType::kIntrospectResponse,
                      frame.request_id, EncodeIntrospectResponse(resp));
        conn->closed.store(true, std::memory_order_release);
        conn->transport->Close();
        return;
      }
      auto req = DecodeIntrospectRequest(frame.body);
      if (!req.ok()) {
        // Valid frame, malformed body: answered cleanly, like a bad
        // query body.
        resp.code = req.status().code();
        resp.message = req.status().message();
        WriteResponse(conn, MessageType::kIntrospectResponse,
                      frame.request_id, EncodeIntrospectResponse(resp));
        return;
      }
      switch (req->what) {
        case IntrospectWhat::kMetricsJson:
        case IntrospectWhat::kMetricsPrometheus:
          if (impl_->options.registry == nullptr) {
            resp.code = StatusCode::kFailedPrecondition;
            resp.message = "no metrics registry behind this server";
          } else if (req->what == IntrospectWhat::kMetricsJson) {
            resp.payload = impl_->options.registry->ToJson();
          } else {
            resp.payload = impl_->options.registry->ToPrometheus();
          }
          break;
        case IntrospectWhat::kSlowQueries:
          if (impl_->options.slow_ring == nullptr) {
            resp.code = StatusCode::kFailedPrecondition;
            resp.message = "no slow-query ring behind this server";
          } else {
            resp.payload = impl_->options.slow_ring->ToJson();
          }
          break;
        case IntrospectWhat::kTrace:
          if (impl_->options.tracer == nullptr) {
            resp.code = StatusCode::kFailedPrecondition;
            resp.message = "no tracer behind this server";
          } else {
            resp.payload = impl_->options.tracer->ToJson();
          }
          break;
      }
      WriteResponse(conn, MessageType::kIntrospectResponse, frame.request_id,
                    EncodeIntrospectResponse(resp));
      return;
    }
    case MessageType::kHandshakeResponse:
    case MessageType::kQueryResponse:
    case MessageType::kWalBatch:
    case MessageType::kWalHeartbeat:
    case MessageType::kIntrospectResponse:
      // Responses flowing toward the server are a protocol violation.
      conn->closed.store(true, std::memory_order_release);
      conn->transport->Close();
      return;
  }
}

void RpcServer::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(impl_->queue_mu);
      impl_->queue_cv.wait(lock, [this] {
        return !impl_->queue.empty() ||
               !impl_->running.load(std::memory_order_acquire);
      });
      if (impl_->queue.empty()) return;  // Only on shutdown.
      task = std::move(impl_->queue.front());
      impl_->queue.pop_front();
    }
    const auto t_exec = std::chrono::steady_clock::now();
    const double queue_wait_us = ElapsedUs(task.received, t_exec);
    QueryResponse resp;
    obs::Span exec_span = task.span.Child("execute");
    auto result = impl_->handler(task.query);
    exec_span.End();
    const auto t_done = std::chrono::steady_clock::now();
    const double execute_us = ElapsedUs(t_exec, t_done);
    if (result.ok()) {
      resp.rows = std::move(*result);
    } else {
      resp.code = result.status().code();
      resp.message = result.status().message();
      task.span.SetAttr("error", result.status().message());
    }
    // End the span before the client can see the response (and advance
    // a shared trace clock).
    const uint64_t root_span_id = task.span.id();
    task.span.End();
    WriteResponse(task.conn, MessageType::kQueryResponse, task.request_id,
                  EncodeQueryResponse(resp));
    task.conn->queued.fetch_sub(1, std::memory_order_acq_rel);
    impl_->inflight.fetch_sub(1, std::memory_order_acq_rel);
    if (impl_->m_inflight) impl_->m_inflight->Add(-1);
    const size_t kind = static_cast<size_t>(task.query.kind);
    if (auto* histogram = impl_->m_latency_us[kind]) {
      histogram->Observe(ElapsedUs(task.received, t_done));
    }
    if (impl_->m_stage_admission[kind]) {
      impl_->m_stage_admission[kind]->Observe(task.admission_us);
      impl_->m_stage_decode[kind]->Observe(task.decode_us);
      impl_->m_stage_queue_wait[kind]->Observe(queue_wait_us);
      impl_->m_stage_execute[kind]->Observe(execute_us);
    }
    if (obs::SlowQueryRing* ring = impl_->options.slow_ring) {
      obs::SlowQuery slow;
      slow.trace_id = task.trace_id;
      slow.root_span_id = root_span_id;
      slow.query_class = serve::QueryKindName(task.query.kind);
      slow.duration_ticks = obs::Histogram::ToTicks(
          task.admission_us + task.decode_us + queue_wait_us + execute_us);
      slow.seq = task.seq;
      slow.stage_ticks = {
          {obs::Stage::kAdmission, obs::Histogram::ToTicks(task.admission_us)},
          {obs::Stage::kDecode, obs::Histogram::ToTicks(task.decode_us)},
          {obs::Stage::kQueueWait, obs::Histogram::ToTicks(queue_wait_us)},
          {obs::Stage::kEngineExecute, obs::Histogram::ToTicks(execute_us)},
      };
      ring->Offer(std::move(slow));
    }
  }
}

}  // namespace kg::rpc
