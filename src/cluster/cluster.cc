#include "cluster/cluster.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "rpc/transport.h"

namespace kg::cluster {

std::vector<graph::KnowledgeGraph> PartitionBySubject(
    const graph::KnowledgeGraph& base, size_t num_shards) {
  std::vector<graph::KnowledgeGraph> shards(num_shards);
  for (graph::TripleId id : base.AllTriples()) {
    const graph::Triple& t = base.triple(id);
    const size_t shard = ShardOf(base.NodeName(t.subject),
                                 base.GetNodeKind(t.subject), num_shards);
    graph::KnowledgeGraph& kg = shards[shard];
    // One AddTriple per provenance entry reproduces the full graph's
    // provenance-append history for this triple, in order.
    for (const graph::Provenance& prov : base.provenance(id)) {
      kg.AddTriple(base.NodeName(t.subject), base.PredicateName(t.predicate),
                   base.NodeName(t.object), base.GetNodeKind(t.subject),
                   base.GetNodeKind(t.object), prov);
    }
    if (base.provenance(id).empty()) {
      kg.AddTriple(base.NodeName(t.subject), base.PredicateName(t.predicate),
                   base.NodeName(t.object), base.GetNodeKind(t.subject),
                   base.GetNodeKind(t.object), graph::Provenance{});
    }
  }
  return shards;
}

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Cluster>> Cluster::Create(
    const graph::KnowledgeGraph& base, ClusterOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  auto cluster = std::unique_ptr<Cluster>(new Cluster(std::move(options)));
  const ClusterOptions& opts = cluster->options_;

  std::vector<graph::KnowledgeGraph> partitions =
      PartitionBySubject(base, opts.num_shards);

  for (size_t shard = 0; shard < opts.num_shards; ++shard) {
    KG_ASSIGN_OR_RETURN(auto primary,
                        PrimaryMember::Create(shard, partitions[shard], opts));
    cluster->primaries_.push_back(std::move(primary));
  }

  for (size_t shard = 0; shard < opts.num_shards; ++shard) {
    for (size_t r = 0; r < opts.replicas_per_shard; ++r) {
      rpc::TransportFactory dial =
          cluster->primaries_[shard]->DialFactory();
      if (opts.injector != nullptr) {
        const std::string channel =
            "ship-s" + std::to_string(shard) + "r" + std::to_string(r);
        // Stream-level chaos: each dialed session gets its own
        // ChaosTransport channel so drops/garbles are deterministic per
        // (seed, session), independent of wall-clock session timing.
        auto sessions = std::make_shared<std::atomic<size_t>>(0);
        const FaultInjector* injector = opts.injector;
        rpc::TransportFactory inner = std::move(dial);
        dial = [inner = std::move(inner), injector, channel,
                sessions]() -> Result<std::unique_ptr<rpc::ITransport>> {
          KG_ASSIGN_OR_RETURN(std::unique_ptr<rpc::ITransport> t, inner());
          const size_t session =
              sessions->fetch_add(1, std::memory_order_relaxed);
          return std::unique_ptr<rpc::ITransport>(
              std::make_unique<rpc::ChaosTransport>(
                  std::move(t), injector,
                  channel + "-" + std::to_string(session)));
        };
        // Dial-level chaos: injected connection refusals.
        dial = rpc::ChaosConnectFactory(std::move(dial), injector, channel);
      }
      KG_ASSIGN_OR_RETURN(
          auto replica, ReplicaMember::Create(shard, r, partitions[shard],
                                              std::move(dial), opts));
      const uint64_t log_end = cluster->primaries_[shard]->log_end();
      if (replica->applied_offset() > log_end) {
        return Status::FailedPrecondition(
            replica->label() + " resumed at offset " +
            std::to_string(replica->applied_offset()) +
            ", past its primary's log end " + std::to_string(log_end) +
            ": " + opts.wal_dir + " holds another cluster's replica logs");
      }
      cluster->replicas_.push_back(std::move(replica));
    }
  }

  std::vector<std::vector<ShardMember*>> groups(opts.num_shards);
  std::vector<PrimaryMember*> primaries;
  for (size_t shard = 0; shard < opts.num_shards; ++shard) {
    groups[shard].push_back(cluster->primaries_[shard].get());
    primaries.push_back(cluster->primaries_[shard].get());
    for (size_t r = 0; r < opts.replicas_per_shard; ++r) {
      groups[shard].push_back(
          cluster->replicas_[shard * opts.replicas_per_shard + r].get());
    }
  }
  cluster->router_ = std::make_unique<QueryRouter>(
      std::move(groups), std::move(primaries), opts);

  std::vector<ReplicaMember*> replica_ptrs;
  for (auto& replica : cluster->replicas_) {
    replica_ptrs.push_back(replica.get());
  }
  cluster->supervisor_ =
      std::make_unique<ClusterSupervisor>(std::move(replica_ptrs), opts);
  std::vector<ClusterSupervisor::ScrapeTarget> targets;
  targets.reserve(cluster->primaries_.size());
  for (auto& primary : cluster->primaries_) {
    targets.push_back({primary->label(), primary->DialFactory()});
  }
  cluster->supervisor_->SetScrapeTargets(std::move(targets));
  if (!cluster->replicas_.empty()) cluster->supervisor_->Start();

  // Return with every replica connected: its primary has answered its
  // handshake (or it gave up dialing, which the supervisor repairs), so
  // no member is still connecting when the first read or commit arrives.
  for (auto& replica : cluster->replicas_) {
    replica->receiver().WaitUntilConnected();
  }
  return cluster;
}

Cluster::~Cluster() {
  if (supervisor_ != nullptr) supervisor_->Stop();
  // Receivers must stop dialing before the primaries (and their
  // listeners) go away.
  for (auto& replica : replicas_) replica->Kill();
}

Status Cluster::Apply(std::span<const store::Mutation> mutations) {
  return router_->Apply(mutations);
}

Result<serve::QueryResult> Cluster::Execute(const serve::Query& query) {
  return router_->Execute(query);
}

void Cluster::KillReplica(size_t shard, size_t replica) {
  this->replica(shard, replica).Kill();
}

void Cluster::ReviveReplica(size_t shard, size_t replica) {
  this->replica(shard, replica).Revive();
}

void Cluster::KillPrimary(size_t shard) { primaries_[shard]->Kill(); }

Status Cluster::RevivePrimary(size_t shard) {
  return primaries_[shard]->Revive();
}

bool Cluster::WaitForCatchUp(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool caught_up = true;
    for (size_t shard = 0; shard < primaries_.size(); ++shard) {
      const uint64_t end = primaries_[shard]->log_end();
      for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
        ReplicaMember& rep = replica(shard, r);
        if (rep.alive() && rep.applied_offset() < end) {
          caught_up = false;
        }
      }
    }
    if (caught_up) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

uint64_t Cluster::MaxReplicaLagBytes() const {
  uint64_t max_lag = 0;
  for (size_t shard = 0; shard < primaries_.size(); ++shard) {
    const uint64_t end = primaries_[shard]->log_end();
    for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
      const ReplicaMember& rep =
          *replicas_[shard * options_.replicas_per_shard + r];
      if (!rep.alive()) continue;
      const uint64_t applied = rep.applied_offset();
      if (end > applied) max_lag = std::max(max_lag, end - applied);
    }
  }
  return max_lag;
}

}  // namespace kg::cluster
