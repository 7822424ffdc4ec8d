#ifndef KGRAPH_CLUSTER_ROUTER_H_
#define KGRAPH_CLUSTER_ROUTER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "cluster/member.h"
#include "cluster/options.h"
#include "graph/knowledge_graph.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_engine.h"
#include "store/wal.h"

namespace kg::cluster {

/// Which shard owns `subject`: every triple lives on its subject's
/// shard (hash of the kind-tagged name, so "E:x" and "T:x" are distinct
/// keys — the same tagging the serving layer renders). Disjoint subject
/// partitioning is what makes scatter-gather exact: point lookups and a
/// node's out-edges live on one known shard, while in-edges and scans
/// spread across all of them and are fanned out + merged.
size_t ShardOf(std::string_view subject, graph::NodeKind kind,
               size_t num_shards);

/// Scatter-gather front door of the cluster. The router is the sole
/// writer: Apply routes each mutation to its subject's shard primary
/// (preserving order within a shard) and records the resulting log end
/// as that shard's *committed offset*. Reads walk a shard group in
/// failover order (primary, then replicas), skip members whose breaker
/// is open, and accept the first answer whose applied-epoch tag is at
/// least the committed offset, so every answer is byte-identical to the
/// single-store reference at the committed state (the cluster property
/// suite proves it). A lagging replica is not an error, just not proof,
/// so the router keeps looking. When no live member can prove freshness
/// the query is shed with kUnavailable.
///
///   - point lookup        -> the subject's shard only
///   - neighborhood / scan -> every shard, rows merged deterministically
///                            (id-ordered; ties broken by shard index)
///   - top-k related       -> two shard rounds whatever the center's
///                            degree: its neighborhood, then one request
///                            per shard carrying every neighbor, which
///                            answers with entity adjacency lists that
///                            the router unions and counts (the aggregate
///                            is not per-shard decomposable; DESIGN §14)
///
/// Thread-safe for concurrent Execute; Apply is single-writer.
class QueryRouter {
 public:
  struct Stats {
    uint64_t failovers = 0;      ///< Primary skipped, replica answered.
    uint64_t shed = 0;           ///< No member could serve.
    uint64_t stale_rejects = 0;  ///< Answers refused by the epoch gate.
    uint64_t probes = 0;         ///< Open-breaker probe attempts.
  };

  /// `members[shard][0]` is the shard primary, the rest its replicas,
  /// in failover order. Raw pointers are not owned and must outlive the
  /// router. `options` supplies the breaker settings and the sinks:
  /// "cluster.*" counters and per-class "stage_us.fanout.<class>"
  /// histograms (each routed scan's shard-round wall time, observed
  /// once) in `registry`; per Execute, one "route.<class>" span tree in
  /// `tracer` ("shard@<i>" / "member.<label>" children per attempt,
  /// parenting the member's store span) and one `slow_ring` entry keyed
  /// by its root span id, with the fanout stage attributed.
  QueryRouter(std::vector<std::vector<ShardMember*>> members,
              std::vector<PrimaryMember*> primaries,
              const ClusterOptions& options);

  /// Applies one logical commit, split by subject shard. Mutations for
  /// the same shard keep their relative order; per-shard sub-batches
  /// are applied in shard order.
  Status Apply(std::span<const store::Mutation> mutations);

  Result<serve::QueryResult> Execute(const serve::Query& query);

  uint64_t committed(size_t shard) const {
    return committed_[shard]->load(std::memory_order_acquire);
  }
  size_t num_shards() const { return members_.size(); }
  Stats stats() const;

 private:
  struct MemberHealth {
    std::mutex mu;
    CircuitBreaker breaker;
    size_t skips_while_open = 0;
    explicit MemberHealth(size_t threshold) : breaker(threshold) {}
  };

  /// True when this selection may try the member (breaker closed, or an
  /// open-breaker probe turn).
  bool AllowMember(MemberHealth& health, bool* is_probe);
  void RecordOutcome(MemberHealth& health, bool ok, bool was_probe);

  /// One shard's answer under the epoch gate and failover order —
  /// the one path every member call takes. `ask(member, span_id)` makes
  /// the call (ExecuteTraced or AdjacentEntitiesTraced) and returns a
  /// `Tagged` answer carrying its applied-epoch tag. `parent` (never
  /// null; inert without a tracer) gets one "shard@<i>" child with a
  /// "member.<label>" grandchild per attempt.
  template <typename Tagged, typename Ask>
  Result<Tagged> AskShard(size_t shard, obs::Span* parent, const Ask& ask);
  /// One shard round: every shard's AskShard answer, in shard order, or
  /// the first shard's refusal. Adds the round's wall time to
  /// `*fanout_us` when non-null (Execute observes the total once per
  /// routed query, so top-k's two rounds attribute to the routed class).
  template <typename Tagged, typename Ask>
  Result<std::vector<Tagged>> Scatter(obs::Span* parent, double* fanout_us,
                                      const Ask& ask);
  /// Fans `query` out to every shard (Scatter) and merges
  /// deterministically.
  Result<serve::QueryResult> FanOut(const serve::Query& query,
                                    obs::Span* parent, double* fanout_us);
  /// Two shard rounds: the center's neighborhood, then one adjacency
  /// request per shard carrying every neighbor (DESIGN §14).
  Result<serve::QueryResult> TopKRelated(const serve::Query& query,
                                         obs::Span* parent,
                                         double* fanout_us);

  std::vector<std::vector<ShardMember*>> members_;
  std::vector<PrimaryMember*> primaries_;
  const ClusterOptions options_;
  /// Per-shard committed shipped-log offset (unique_ptr: atomics don't
  /// move, vectors need to).
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> committed_;
  std::vector<std::vector<std::unique_ptr<MemberHealth>>> health_;

  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> stale_rejects_{0};
  std::atomic<uint64_t> probes_{0};

  obs::Counter* failovers_metric_ = nullptr;
  obs::Counter* shed_metric_ = nullptr;
  obs::Counter* stale_metric_ = nullptr;
  /// Per-class fanout stage histograms (null without registry).
  std::array<obs::Histogram*, serve::kNumQueryKinds> stage_fanout_{};
  /// Routed-query order for deterministic slow-ring tie-breaks.
  std::atomic<uint64_t> route_seq_{0};
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_ROUTER_H_
