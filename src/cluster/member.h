#ifndef KGRAPH_CLUSTER_MEMBER_H_
#define KGRAPH_CLUSTER_MEMBER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "cluster/options.h"
#include "cluster/shard_log.h"
#include "cluster/wal_receiver.h"
#include "common/status.h"
#include "graph/knowledge_graph.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "store/versioned_store.h"

namespace kg::cluster {

/// One member of a shard group, as the router sees it: a store that
/// answers with an applied-epoch tag (the shipped-WAL byte offset its
/// content provably covers), or refuses with kUnavailable while the
/// member is killed. PrimaryMember and ReplicaMember add the write and
/// shipping sides; the reads are the same for both.
class ShardMember {
 public:
  ShardMember(const ShardMember&) = delete;
  ShardMember& operator=(const ShardMember&) = delete;

  /// Answers `query` under a caller span: `parent_span_id` is the
  /// router's per-attempt "member.<label>" span (0 = untraced). With a
  /// tracer the member nests its own "store.execute" span under it,
  /// completing the router -> shard -> member -> store trace tree.
  Result<serve::EpochTaggedResult> ExecuteTraced(
      const serve::Query& query, uint64_t parent_span_id) const;
  /// Routed top-k's second round: the entities at the far end of every
  /// node's out-edges (VersionedKgStore::TryOutEntitiesTagged), as a
  /// "store.out_entities" span under the caller span, and refused the
  /// same way while killed.
  Result<store::EpochTaggedAdjacency> OutEntitiesTraced(
      std::span<const serve::NodeKey> nodes, uint64_t parent_span_id) const;
  /// Routed top-k's third round: this shard's k best entities for the
  /// center's ring and this shard's out-hop pairs
  /// (VersionedKgStore::TryRingScoresTagged), as a "store.ring_scores"
  /// span, and refused the same way while killed.
  Result<store::EpochTaggedScores> RingScoresTraced(
      const serve::NodeKey& center, std::span<const serve::NodeKey> ring,
      std::span<const serve::RingHop> hops, size_t k,
      uint64_t parent_span_id) const;

  bool alive() const { return !killed_.load(std::memory_order_acquire); }
  const std::string& label() const { return label_; }
  store::VersionedKgStore& store() { return *store_; }

 protected:
  ShardMember(std::string label, const ClusterOptions& options);
  ~ShardMember() = default;

  /// Opens the member store over `base`, persisting to `wal_path` when
  /// non-empty, with the cluster's registry and stage timing.
  Status OpenStore(const graph::KnowledgeGraph& base,
                   const std::string& wal_path);

  const ClusterOptions options_;
  const std::string label_;
  std::unique_ptr<store::VersionedKgStore> store_;
  std::atomic<bool> killed_{false};
};

/// The writable head of a shard group: a VersionedKgStore plus the
/// ShardLog image of every commit it has applied, fronted by an
/// in-process RpcServer that streams that log to subscribed replicas.
/// Kill() models process death for serving purposes — queries refuse,
/// the shipping listener refuses dials — while state survives for
/// Revive(). The store (opened with no WAL) and the log live in memory
/// only: a primary keeps its history nowhere else, and only a replica's
/// WAL outlives the process (see ReplicaMember).
class PrimaryMember : public ShardMember {
 public:
  static Result<std::unique_ptr<PrimaryMember>> Create(
      size_t shard, const graph::KnowledgeGraph& base,
      const ClusterOptions& options = {});
  ~PrimaryMember();

  /// Applies one logical commit and appends it to the shipping log as one
  /// record; after return the store's watermark equals log_end(), so the
  /// primary's own answers always pass the router's epoch gate. A commit
  /// store::EncodeCommit refuses (too large for one kWalBatch frame)
  /// fails with kInvalidArgument before the store or the log moves.
  Status ApplyBatch(std::span<const store::Mutation> mutations);

  uint64_t log_end() const { return log_.EndOffset(); }
  ShardLog& log() { return log_; }

  /// Dial factory for this primary's shipping endpoint. Dials fail with
  /// kUnavailable while the primary is killed, and reach the *current*
  /// listener after a revive (the factory re-resolves per dial).
  rpc::TransportFactory DialFactory();

  /// Stops serving: queries and dials refuse until Revive().
  void Kill();
  Status Revive();

 private:
  PrimaryMember(size_t shard, const ClusterOptions& options);
  /// Creates a fresh loopback listener + shipping server. Caller holds
  /// `server_mu_`.
  Status StartServerLocked();

  ShardLog log_;

  mutable std::mutex server_mu_;
  rpc::InMemoryTransportServer* loopback_ = nullptr;  ///< Owned by server_.
  std::unique_ptr<rpc::RpcServer> server_;
};

/// A read replica: the shard's base KG plus whatever verified prefix of
/// the primary's log its WalReceiver has applied. Answers carry the
/// applied offset as their epoch tag; the router's epoch gate does the
/// rest.
class ReplicaMember : public ShardMember {
 public:
  /// `base` must be the same shard partition the primary was built
  /// from; `dial` reaches the primary's shipping endpoint (wrap with
  /// ChaosConnectFactory / ChaosTransport for fault drills). With
  /// `options.wal_dir` set, applied commits persist to
  /// `<wal_dir>/s<shard>r<index>.wal` and — because the replica applies
  /// each shipped record as one commit, its WAL is byte-identical to the
  /// primary's log — the file size *is* the resume offset: a recreated
  /// replica opens the file, replays it, and resubscribes from exactly
  /// where it left off (cluster_replication_test proves the bit-identical
  /// resume). A local WAL holding a record that does not decode fails
  /// Create and is left as it was.
  static Result<std::unique_ptr<ReplicaMember>> Create(
      size_t shard, size_t index, const graph::KnowledgeGraph& base,
      rpc::TransportFactory dial, const ClusterOptions& options = {});
  ~ReplicaMember();

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

 private:
  ReplicaMember(size_t shard, size_t index, const ClusterOptions& options);

  std::unique_ptr<WalReceiver> receiver_;
  std::mutex lifecycle_mu_;  ///< Serializes Kill/Revive/EnsureLink.
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_MEMBER_H_
