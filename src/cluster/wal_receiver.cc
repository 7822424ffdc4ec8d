#include "cluster/wal_receiver.h"

#include <algorithm>
#include <utility>

#include "cluster/shard_log.h"
#include "obs/trace.h"
#include "store/wal.h"

namespace kg::cluster {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WalReceiver::WalReceiver(rpc::TransportFactory dial,
                         store::VersionedKgStore* store,
                         uint32_t initial_chain, std::string label,
                         WalReceiverOptions options,
                         obs::MetricsRegistry* registry)
    : dial_(std::move(dial)),
      store_(store),
      label_(std::move(label)),
      options_(options),
      chain_(initial_chain) {
  last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
  if (registry != nullptr) {
    resubscribes_ = &registry->GetCounter("cluster.resubscribes");
    heartbeats_missed_ = &registry->GetCounter("cluster.heartbeats.missed");
    batches_rejected_ =
        &registry->GetCounter("cluster.wal.batches.rejected");
    batches_applied_ = &registry->GetCounter("cluster.wal.batches.applied");
  }
}

WalReceiver::~WalReceiver() { Stop(); }

void WalReceiver::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  if (thread_.joinable()) thread_.join();  // Reap an exited thread.
  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> connected_lock(connected_mu_);
    connected_ = false;
    running_.store(true, std::memory_order_release);
  }
  last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
  thread_ = std::thread([this] { Run(); });
}

void WalReceiver::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> tlock(transport_mu_);
    if (live_transport_ != nullptr) live_transport_->Close();
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

bool WalReceiver::WaitUntilConnected() {
  std::unique_lock<std::mutex> lock(connected_mu_);
  connected_cv_.wait(lock, [this] {
    return connected_ || !running_.load(std::memory_order_acquire);
  });
  return connected_;
}

int64_t WalReceiver::ms_since_progress() const {
  return NowMs() - last_progress_ms_.load(std::memory_order_relaxed);
}

void WalReceiver::Run() {
  size_t dial_failures = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    auto dialed = dial_();
    if (!dialed.ok()) {
      if (++dial_failures >= options_.max_dial_attempts) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.dial_retry_ms));
      continue;
    }
    dial_failures = 0;
    rpc::ITransport* transport = dialed->get();
    rpc::RpcClientOptions client_options;
    client_options.read_timeout_ms = options_.heartbeat_timeout_ms;
    rpc::RpcClient client(std::move(*dialed), client_options);
    {
      std::lock_guard<std::mutex> lock(transport_mu_);
      if (stop_.load(std::memory_order_acquire)) break;
      live_transport_ = transport;
    }
    sessions_.fetch_add(1, std::memory_order_relaxed);
    RunSession(&client);
    {
      std::lock_guard<std::mutex> lock(transport_mu_);
      live_transport_ = nullptr;
    }
    transport->Close();
    if (!stop_.load(std::memory_order_acquire)) {
      if (resubscribes_ != nullptr) resubscribes_->Inc();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.dial_retry_ms));
    }
  }
  {
    std::lock_guard<std::mutex> lock(connected_mu_);
    running_.store(false, std::memory_order_release);
  }
  connected_cv_.notify_all();
}

void WalReceiver::RunSession(rpc::RpcClient* client) {
  // Handshake (request id 1): WAL subscribers speak the same front door
  // as query clients, so a schema-incompatible primary refuses us here.
  if (!client->Handshake().ok()) return;
  {
    std::lock_guard<std::mutex> lock(connected_mu_);
    connected_ = true;
  }
  connected_cv_.notify_all();

  // Subscribe (request id 2) from the last verified offset. A configured
  // tracer roots one span per session whose id rides the subscribe as
  // trace context, so the primary's ship spans and our apply spans share
  // one tree.
  obs::Span session =
      obs::Tracer::Start(options_.tracer, "wal.session." + label_);
  rpc::TraceContext session_ctx;
  session_ctx.trace_id = session.id();
  session_ctx.parent_span_id = session.id();
  session_ctx.sampled = true;
  if (!client
           ->Subscribe(store_->applied_watermark(),
                       session.active() ? &session_ctx : nullptr)
           .ok()) {
    return;
  }

  const auto reject = [this] {
    if (batches_rejected_ != nullptr) batches_rejected_->Inc();
  };
  while (!stop_.load(std::memory_order_acquire)) {
    auto push = client->ReadWalPush();
    if (!push.ok()) {
      if (client->healthy()) {
        // Silent past the deadline with the stream intact.
        if (heartbeats_missed_ != nullptr) heartbeats_missed_->Inc();
      } else if (push.status().code() != StatusCode::kUnavailable) {
        reject();  // The primary refused the subscription.
      }
      return;
    }
    if (push->type == rpc::MessageType::kWalHeartbeat) {
      const rpc::WalHeartbeat& hb = push->heartbeat;
      last_seen_log_end_.store(hb.log_end, std::memory_order_release);
      last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
      if (hb.log_end == store_->applied_watermark() &&
          hb.chain_at_end != chain_) {
        // Our fully-caught-up prefix disagrees with the primary's
        // chain: this session cannot be trusted. Tear down and
        // re-verify from scratch on the next subscribe.
        return reject();
      }
      continue;
    }
    const rpc::WalBatch& batch = push->batch;

    // A traced batch carries the primary's ship-span id; the apply span
    // roots under it, so the cross-process tree reads
    // session -> ship -> apply per shipped batch.
    obs::Span apply = obs::Tracer::StartWithParent(
        options_.tracer, push->has_trace ? push->trace.parent_span_id : 0,
        "wal.apply");
    if (apply.active()) {
      apply.SetAttr("start_offset", batch.start_offset);
      apply.SetAttr("end_offset", batch.end_offset);
    }

    // Verify before apply: exact continuation, clean replay, chain
    // agreement. A failure means a lost/garbled segment — drop the
    // session and resubscribe from the last verified offset.
    if (batch.start_offset != store_->applied_watermark()) return reject();
    const store::WalReplay replay = store::ReplayWalBuffer(batch.frames);
    if (!replay.clean || replay.valid_bytes != batch.frames.size()) {
      return reject();
    }
    const uint32_t chain_after =
        ShardLog::FoldChain(chain_, batch.frames, replay.frame_offsets);
    if (chain_after != batch.chain_after) return reject();
    if (!store_->ApplyBatch(replay.mutations).ok()) return reject();
    store_->set_applied_watermark(batch.end_offset);
    chain_ = chain_after;
    last_seen_log_end_.store(std::max(batch.log_end, batch.end_offset),
                             std::memory_order_release);
    last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
    if (batches_applied_ != nullptr) batches_applied_->Inc();
  }
}

}  // namespace kg::cluster
