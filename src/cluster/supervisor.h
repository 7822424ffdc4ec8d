#ifndef KGRAPH_CLUSTER_SUPERVISOR_H_
#define KGRAPH_CLUSTER_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/member.h"
#include "cluster/options.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/frame.h"

namespace kg::cluster {

/// Cluster health loop: watches every replica's WAL link and (a) restarts
/// receiver threads that gave up while their primary was dead — the
/// re-subscribe resumes from the replica's persisted offset, so a revived
/// primary ships only the missing suffix — and (b) kicks links that are
/// nominally running but silent past the stall timeout. Also exports
/// per-sweep lag gauges ("cluster.replica.lag_bytes.max",
/// "cluster.replicas.down") into `options.registry`. Sweeps run every
/// `options.supervisor.interval_ms` on a background thread; tests can
/// call Tick() directly for deterministic single-steps.
class ClusterSupervisor {
 public:
  ClusterSupervisor(std::vector<ReplicaMember*> replicas,
                    const ClusterOptions& options);
  ~ClusterSupervisor();

  ClusterSupervisor(const ClusterSupervisor&) = delete;
  ClusterSupervisor& operator=(const ClusterSupervisor&) = delete;

  void Start();
  void Stop();

  /// One sweep: restart dead links, kick stalled ones, refresh gauges.
  void Tick();

  uint64_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }

  /// One scrapeable member endpoint: a stable label plus a dial to its
  /// RPC listener (e.g. PrimaryMember::DialFactory).
  struct ScrapeTarget {
    std::string label;
    rpc::TransportFactory dial;
  };

  /// Registers the endpoints ScrapeCluster visits. Call before Start()
  /// (the Cluster facade registers every shard primary at build time).
  void SetScrapeTargets(std::vector<ScrapeTarget> targets);

  /// Cluster-wide introspection scrape: dials every registered target
  /// over its own wire, handshakes, issues kIntrospectRequest(`what`),
  /// and merges the per-member payloads into one deterministic JSON
  /// document — members keyed and ordered by label, a member that
  /// cannot be scraped contributing {"error": ...} instead of failing
  /// the whole scrape:
  ///
  ///   {"schema_version":1,"what":"<selector>",
  ///    "members":{"s0.primary":<payload>,...}}
  ///
  /// JSON payloads (metrics JSON, slow queries, trace) embed raw; the
  /// Prometheus exposition embeds as a JSON string.
  Result<std::string> ScrapeCluster(rpc::IntrospectWhat what) const;

 private:
  std::vector<ReplicaMember*> replicas_;
  int interval_ms_;
  std::vector<ScrapeTarget> scrape_targets_;

  std::mutex lifecycle_mu_;
  std::thread thread_;
  std::atomic<bool> stop_{true};
  std::atomic<uint64_t> restarts_{0};

  obs::Counter* restarts_metric_ = nullptr;
  obs::Gauge* max_lag_gauge_ = nullptr;
  obs::Gauge* down_gauge_ = nullptr;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_SUPERVISOR_H_
