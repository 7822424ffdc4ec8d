#ifndef KGRAPH_CLUSTER_CLUSTER_H_
#define KGRAPH_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/member.h"
#include "cluster/options.h"
#include "cluster/router.h"
#include "cluster/supervisor.h"
#include "common/fault.h"
#include "common/status.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"

namespace kg::cluster {

/// Splits `base` into per-shard KnowledgeGraphs by subject hash
/// (ShardOf over the kind-tagged subject name). Triple order and each
/// triple's provenance list survive verbatim, so a shard's sub-graph
/// answers every subject-owned query exactly as the full graph does.
std::vector<graph::KnowledgeGraph> PartitionBySubject(
    const graph::KnowledgeGraph& base, size_t num_shards);

/// An in-process sharded + replicated serving cluster over the
/// VersionedKgStore: N shard groups, each a writable primary plus R
/// read replicas kept in sync by WAL shipping over the rpc framing,
/// fronted by the scatter-gather QueryRouter and watched by the
/// ClusterSupervisor. Kill/Revive model member crashes for failover
/// drills; the cluster property suite proves sharded answers are
/// byte-identical to a single store through all of it.
class Cluster {
 public:
  /// Builds every member from `options` and returns once every replica
  /// has connected to its primary (see WalReceiver::WaitUntilConnected).
  /// Fails with kFailedPrecondition when `options.wal_dir` holds a
  /// replica log that runs past its fresh primary's (in-memory, so empty)
  /// log: that replica would answer from commits this cluster never
  /// made, with epoch tags that pass the router's gate.
  static Result<std::unique_ptr<Cluster>> Create(
      const graph::KnowledgeGraph& base, ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// One logical commit through the router (the cluster's sole writer).
  Status Apply(std::span<const store::Mutation> mutations);

  Result<serve::QueryResult> Execute(const serve::Query& query);

  // --- Failure drills -----------------------------------------------------

  void KillReplica(size_t shard, size_t replica);
  void ReviveReplica(size_t shard, size_t replica);
  void KillPrimary(size_t shard);
  Status RevivePrimary(size_t shard);

  // --- Introspection ------------------------------------------------------

  /// Blocks until every *live* replica has applied its primary's full
  /// log (lag 0); false on timeout. The deterministic barrier the tests
  /// and the bench quiesce on.
  bool WaitForCatchUp(int timeout_ms);

  /// Cluster-wide observability scrape over the wire: every shard
  /// primary's endpoint answers kIntrospectRequest(`what`), merged
  /// deterministically by member label (ClusterSupervisor::ScrapeCluster).
  Result<std::string> ScrapeCluster(rpc::IntrospectWhat what) const {
    return supervisor_->ScrapeCluster(what);
  }

  uint64_t MaxReplicaLagBytes() const;

  size_t num_shards() const { return primaries_.size(); }
  size_t replicas_per_shard() const { return options_.replicas_per_shard; }
  PrimaryMember& primary(size_t shard) { return *primaries_[shard]; }
  ReplicaMember& replica(size_t shard, size_t index) {
    return *replicas_[shard * options_.replicas_per_shard + index];
  }
  QueryRouter& router() { return *router_; }
  ClusterSupervisor& supervisor() { return *supervisor_; }

 private:
  explicit Cluster(ClusterOptions options);

  ClusterOptions options_;
  /// Destruction order matters: supervisor first (it pokes replicas),
  /// then router, then replicas (receivers dial primaries), then
  /// primaries — i.e. members are declared before their watchers.
  std::vector<std::unique_ptr<PrimaryMember>> primaries_;
  std::vector<std::unique_ptr<ReplicaMember>> replicas_;  ///< shard-major.
  std::unique_ptr<QueryRouter> router_;
  std::unique_ptr<ClusterSupervisor> supervisor_;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_CLUSTER_H_
