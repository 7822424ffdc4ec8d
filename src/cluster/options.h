#ifndef KGRAPH_CLUSTER_OPTIONS_H_
#define KGRAPH_CLUSTER_OPTIONS_H_

#include <cstddef>
#include <string>

namespace kg {
class FaultInjector;
}  // namespace kg

namespace kg::obs {
class MetricsRegistry;
class SlowQueryRing;
class Tracer;
}  // namespace kg::obs

namespace kg::cluster {

/// One replica's WAL link (WalReceiver).
struct WalReceiverOptions {
  /// How long a subscribed link may go silent (no batch, no heartbeat)
  /// before the receiver declares the session dead and re-dials.
  int heartbeat_timeout_ms = 500;
  /// Pause between dial attempts while the primary is unreachable.
  int dial_retry_ms = 2;
  /// Consecutive failed dials before the receiver thread gives up and
  /// exits (link down); the ClusterSupervisor restarts it later.
  size_t max_dial_attempts = 40;
  /// Distributed tracing of the shipping link (not owned). Each session
  /// roots a "wal.session" span whose id rides the kWalSubscribe frame
  /// as trace context; the primary parents "wal.ship" spans under it
  /// and echoes the context on every kWalBatch, which this receiver
  /// extracts to root "wal.apply" spans under the originating ship.
  /// Batch boundaries are timing-dependent, so WAL spans are
  /// best-effort forensics, not part of the determinism-gated trace
  /// surfaces — leave this null when byte-identical trace JSON matters.
  obs::Tracer* tracer = nullptr;
};

/// The ClusterSupervisor's health loop.
struct SupervisorOptions {
  /// Sweep cadence of the background thread.
  int interval_ms = 20;
};

/// The one configuration of a sharded cluster. Cluster::Create hands it
/// to every primary, replica, the router and the supervisor, which read
/// their settings from it directly.
struct ClusterOptions {
  size_t num_shards = 1;
  size_t replicas_per_shard = 0;
  /// "cluster.*" (and member "store.*"/"rpc.*") metrics land here when
  /// non-null (not owned), with the stages every registry gets: fanout
  /// at the router, WAL append and overlay merge in member stores.
  obs::MetricsRegistry* registry = nullptr;
  /// Distributed tracing (not owned). Wired into the router and every
  /// member, so each routed query renders as one connected span tree
  /// (route -> shard -> member -> store.execute), and into each
  /// primary's RPC endpoint for kIntrospect(kTrace) scrapes. NOT wired
  /// into WAL receivers — shipping spans depend on batch timing; opt in
  /// via `receiver.tracer` when forensics beat determinism.
  obs::Tracer* tracer = nullptr;
  /// Worst-N routed-query retention (not owned); also exposed on every
  /// primary endpoint via kIntrospect(kSlowQueries).
  obs::SlowQueryRing* slow_ring = nullptr;
  /// Forwarded to every member store's StoreOptions::time_stages. Member
  /// stores have no result cache, so with `registry` this only registers
  /// empty "stage_us.cache_probe.<class>" histograms.
  bool time_stages = false;
  /// Worker threads of each primary's in-process RPC endpoint (the
  /// shipping and introspection endpoint). Trace determinism is
  /// independent of this knob by construction — bench_cluster proves
  /// it at 1/2/8.
  size_t server_worker_threads = 1;
  /// When set, replica r of shard s persists its applied log to
  /// `<wal_dir>/s<s>r<r>.wal`. Shipped bytes are byte-identical to the
  /// primary's log, so the file size is the replica's resume offset.
  /// Primaries keep their log in memory only, so Cluster::Create
  /// refuses a directory that already holds a replica log ahead of a
  /// fresh primary. Empty keeps everything in memory.
  std::string wal_dir;
  /// Chaos on the WAL shipping links: dials go through
  /// ChaosConnectFactory and every shipped byte stream through a
  /// ChaosTransport, channels "ship-s<s>r<r>[-<session>]". Must outlive
  /// the cluster. Query routing is in-process and unaffected.
  const FaultInjector* injector = nullptr;
  /// Heartbeat cadence of each primary's idle shipping links.
  int heartbeat_interval_ms = 5;
  SupervisorOptions supervisor;
  WalReceiverOptions receiver;
  /// Consecutive failures that open a member's circuit breaker.
  size_t breaker_failure_threshold = 3;
  /// While a breaker is open, one probe is let through every this many
  /// selections, so a revived member is rediscovered without waiting on
  /// the supervisor.
  size_t breaker_probe_interval = 4;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_OPTIONS_H_
