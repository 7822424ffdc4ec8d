#ifndef KGRAPH_CLUSTER_MEMBER_H_
#define KGRAPH_CLUSTER_MEMBER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "cluster/shard_log.h"
#include "cluster/wal_receiver.h"
#include "common/status.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "store/versioned_store.h"

namespace kg::cluster {

/// Router-facing view of one member of a shard group: something that
/// answers queries with an applied-epoch tag (the shipped-WAL byte
/// offset its content provably covers) or refuses with kUnavailable
/// while dead.
class ShardMember {
 public:
  virtual ~ShardMember() = default;
  virtual Result<serve::EpochTaggedResult> Execute(
      const serve::Query& query) const = 0;
  /// Execute under a caller span: `parent_span_id` is the router's
  /// per-attempt "member.<label>" span (0 = untraced). Members with a
  /// tracer nest their own "store.execute" span under it, completing
  /// the router -> shard -> member -> store trace tree. The default
  /// ignores tracing, so test fakes keep working unchanged.
  virtual Result<serve::EpochTaggedResult> ExecuteTraced(
      const serve::Query& query, uint64_t parent_span_id) const {
    (void)parent_span_id;
    return Execute(query);
  }
  /// Routed top-k's second hop: the store's entity adjacency of every
  /// node in `nodes` (VersionedKgStore::TryAdjacentEntitiesTagged), under
  /// a caller span exactly like ExecuteTraced, and refused the same way
  /// while dead.
  virtual Result<store::EpochTaggedAdjacency> AdjacentEntitiesTraced(
      std::span<const store::NodeKey> nodes,
      uint64_t parent_span_id) const = 0;
  virtual bool alive() const = 0;
  virtual const std::string& label() const = 0;
};

struct PrimaryOptions {
  /// Durable store WAL for the primary itself (optional; tests run
  /// in-memory).
  std::string wal_path;
  obs::MetricsRegistry* registry = nullptr;
  /// Shipping-server tuning (see RpcServerOptions).
  int heartbeat_interval_ms = 5;
  size_t wal_batch_max_bytes = 256 * 1024;
  /// Worker threads of the in-process RpcServer (the shipping and
  /// introspection endpoint). Trace determinism is independent of this
  /// knob by construction — the bench proves it at 1/2/8.
  size_t server_worker_threads = 1;
  /// Distributed tracing (not owned): ExecuteTraced nests a
  /// "store.execute" span, and the shipping server roots "wal.ship"
  /// spans for traced subscriptions. kIntrospect(kTrace) against this
  /// primary dumps it.
  obs::Tracer* tracer = nullptr;
  /// Slow-query retention exposed via kIntrospect(kSlowQueries) on the
  /// primary's endpoint (not owned).
  obs::SlowQueryRing* slow_ring = nullptr;
  /// With `registry`, time store stages (cache probe / WAL append /
  /// overlay merge) into "stage_us.*" histograms.
  bool time_stages = false;
};

/// The writable head of a shard group: a VersionedKgStore plus the
/// ShardLog image of every mutation it has applied, fronted by an
/// in-process RpcServer that streams that log to subscribed replicas.
/// Kill() models process death for serving purposes — queries refuse,
/// the shipping listener refuses dials — while state survives for
/// Revive() (durability across a real crash is the replica-WAL story;
/// see ReplicaMember).
class PrimaryMember : public ShardMember {
 public:
  static Result<std::unique_ptr<PrimaryMember>> Create(
      size_t shard, const graph::KnowledgeGraph& base,
      PrimaryOptions options = {});
  ~PrimaryMember() override;

  /// Applies one logical commit and appends it to the shipping log;
  /// after return the store's watermark equals log_end(), so the
  /// primary's own answers always pass the freshest staleness gate.
  Status ApplyBatch(std::span<const store::Mutation> mutations);

  uint64_t log_end() const { return log_.EndOffset(); }
  ShardLog& log() { return log_; }
  store::VersionedKgStore& store() { return *store_; }

  /// Dial factory for this primary's shipping endpoint. Dials fail with
  /// kUnavailable while the primary is killed, and reach the *current*
  /// listener after a revive (the factory re-resolves per dial).
  rpc::TransportFactory DialFactory();

  /// Stops serving: queries and dials refuse until Revive().
  void Kill();
  Status Revive();

  // --- ShardMember --------------------------------------------------------
  Result<serve::EpochTaggedResult> Execute(
      const serve::Query& query) const override;
  Result<serve::EpochTaggedResult> ExecuteTraced(
      const serve::Query& query, uint64_t parent_span_id) const override;
  Result<store::EpochTaggedAdjacency> AdjacentEntitiesTraced(
      std::span<const store::NodeKey> nodes,
      uint64_t parent_span_id) const override;
  bool alive() const override {
    return !killed_.load(std::memory_order_acquire);
  }
  const std::string& label() const override { return label_; }

 private:
  PrimaryMember(size_t shard, PrimaryOptions options);
  /// Creates a fresh loopback listener + shipping server. Caller holds
  /// `server_mu_`.
  Status StartServerLocked();

  size_t shard_;
  PrimaryOptions options_;
  std::string label_;
  std::unique_ptr<store::VersionedKgStore> store_;
  ShardLog log_;
  std::atomic<bool> killed_{false};

  mutable std::mutex server_mu_;
  rpc::InMemoryTransportServer* loopback_ = nullptr;  ///< Owned by server_.
  std::unique_ptr<rpc::RpcServer> server_;
};

struct ReplicaOptions {
  /// Replica-local WAL. When set, applied mutations persist and —
  /// because shipped bytes are byte-identical to the primary's log —
  /// the file size *is* the resume offset: a recreated replica opens
  /// the file, replays it, and resubscribes from exactly where it left
  /// off (cluster_replication_test proves the bit-identical resume).
  std::string wal_path;
  obs::MetricsRegistry* registry = nullptr;
  WalReceiverOptions receiver;
  /// Distributed tracing (not owned): ExecuteTraced nests a
  /// "store.execute" span under the router's member span.
  obs::Tracer* tracer = nullptr;
  /// With `registry`, time store stages into "stage_us.*" histograms.
  bool time_stages = false;
};

/// A read replica: the shard's base KG plus whatever verified prefix of
/// the primary's log its WalReceiver has applied. Answers carry the
/// applied offset as their epoch tag; the router's staleness gate does
/// the rest.
class ReplicaMember : public ShardMember {
 public:
  /// `base` must be the same shard partition the primary was built
  /// from; `dial` reaches the primary's shipping endpoint (wrap with
  /// ChaosConnectFactory / ChaosTransport for fault drills).
  static Result<std::unique_ptr<ReplicaMember>> Create(
      size_t shard, size_t index, const graph::KnowledgeGraph& base,
      rpc::TransportFactory dial, ReplicaOptions options = {});
  ~ReplicaMember() override;

  /// Stops the receiver and refuses queries until Revive().
  void Kill();
  /// Resumes serving and resubscribes from the last verified offset.
  void Revive();

  /// Supervisor hook: restarts a receiver whose thread gave up (dial
  /// attempts exhausted while the primary was down). No-op while killed
  /// or while the link is healthy.
  void EnsureLink();

  WalReceiver& receiver() { return *receiver_; }
  const WalReceiver& receiver() const { return *receiver_; }
  uint64_t applied_offset() const { return store_->applied_watermark(); }
  /// Shipped-log bytes known to exist but not yet applied here.
  uint64_t lag_bytes() const;
  store::VersionedKgStore& store() { return *store_; }

  // --- ShardMember --------------------------------------------------------
  Result<serve::EpochTaggedResult> Execute(
      const serve::Query& query) const override;
  Result<serve::EpochTaggedResult> ExecuteTraced(
      const serve::Query& query, uint64_t parent_span_id) const override;
  Result<store::EpochTaggedAdjacency> AdjacentEntitiesTraced(
      std::span<const store::NodeKey> nodes,
      uint64_t parent_span_id) const override;
  bool alive() const override {
    return !killed_.load(std::memory_order_acquire);
  }
  const std::string& label() const override { return label_; }

 private:
  ReplicaMember(size_t shard, size_t index, ReplicaOptions options);

  size_t shard_;
  size_t index_;
  ReplicaOptions options_;
  std::string label_;
  std::unique_ptr<store::VersionedKgStore> store_;
  std::unique_ptr<WalReceiver> receiver_;
  std::atomic<bool> killed_{false};
  std::mutex lifecycle_mu_;  ///< Serializes Kill/Revive/EnsureLink.
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_MEMBER_H_
