#ifndef KGRAPH_CLUSTER_WAL_RECEIVER_H_
#define KGRAPH_CLUSTER_WAL_RECEIVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/options.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "store/versioned_store.h"

namespace kg::cluster {

/// One replica's end of the WAL shipping protocol. A background thread
/// dials the shard primary and, through an rpc::RpcClient, handshakes,
/// subscribes from the replica's applied offset, and then applies
/// verified kWalBatch frames:
///
///   - the batch must start exactly at our applied offset,
///   - its frames must replay cleanly (store::ReplayWalBuffer), and
///   - folding our Checksum32 chain over the shipped bytes must land on
///     the primary's advertised chain_after.
///
/// Only then is the batch applied and the store's applied watermark
/// advanced — so every epoch a replica ever serves is a verified
/// byte-identical prefix of the primary's log. Any mismatch tears the
/// session down and resubscribes from the last *verified* offset;
/// nothing unverified is ever applied. Heartbeats carry the primary's
/// log end for lag accounting, and a silent link (missed heartbeats)
/// triggers a re-dial.
class WalReceiver {
 public:
  /// `store` must outlive the receiver; `initial_chain` is the chain
  /// value at the store's applied watermark (0 for a fresh replica, or
  /// folded over the local WAL for one recovering from disk). The
  /// "cluster.*" link counters land in `registry` when non-null (not
  /// owned).
  WalReceiver(rpc::TransportFactory dial, store::VersionedKgStore* store,
              uint32_t initial_chain, std::string label,
              WalReceiverOptions options = {},
              obs::MetricsRegistry* registry = nullptr);
  ~WalReceiver();

  WalReceiver(const WalReceiver&) = delete;
  WalReceiver& operator=(const WalReceiver&) = delete;

  /// Starts (or restarts) the receiver thread. No-op when running.
  void Start();

  /// Stops the thread and closes any in-flight session.
  void Stop();

  /// Blocks until the primary has answered a session's handshake since
  /// the last Start(), or the thread has exited (Stop(), or dial attempts
  /// exhausted). True when a handshake was answered.
  bool WaitUntilConnected();

  /// True while the receiver thread is live (dialing or streaming).
  /// False after Stop() or after dial attempts were exhausted — the
  /// supervisor uses the latter to schedule a restart.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Primary log end as of the last batch/heartbeat seen; lag is this
  /// minus the store's applied watermark.
  uint64_t last_seen_log_end() const {
    return last_seen_log_end_.load(std::memory_order_acquire);
  }

  /// Milliseconds since the link last showed life (batch or heartbeat).
  /// Large values on a "running" receiver mean the session is stalled.
  int64_t ms_since_progress() const;

  uint64_t sessions() const {
    return sessions_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  /// One connected session, spoken through `client`: handshake,
  /// subscribe, stream until the link breaks, a verification fails, or
  /// Stop() is called.
  void RunSession(rpc::RpcClient* client);

  rpc::TransportFactory dial_;
  store::VersionedKgStore* store_;
  std::string label_;
  WalReceiverOptions options_;

  /// Chain value at store_->applied_watermark(); only the receiver
  /// thread touches it while running.
  uint32_t chain_ = 0;

  std::mutex lifecycle_mu_;  ///< Serializes Start/Stop.
  std::thread thread_;

  std::mutex transport_mu_;
  rpc::ITransport* live_transport_ = nullptr;  ///< For Stop() to close.

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> last_seen_log_end_{0};
  std::atomic<int64_t> last_progress_ms_{0};  ///< steady_clock ms.
  std::atomic<uint64_t> sessions_{0};

  std::mutex connected_mu_;
  std::condition_variable connected_cv_;
  /// A handshake was answered since the last Start(). Changes under
  /// connected_mu_, as does running_ when the thread exits.
  bool connected_ = false;

  obs::Counter* resubscribes_ = nullptr;
  obs::Counter* heartbeats_missed_ = nullptr;
  obs::Counter* batches_rejected_ = nullptr;
  obs::Counter* batches_applied_ = nullptr;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_WAL_RECEIVER_H_
