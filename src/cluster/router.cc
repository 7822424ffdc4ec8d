#include "cluster/router.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/timer.h"
#include "serve/read.h"

namespace kg::cluster {
namespace {

/// The node portion (third field) of a neighborhood row
/// "dir\tpredicate\tnode". Predicates must not contain tabs (DESIGN
/// §14) — the node itself may contain anything, since it is the
/// remainder after the second tab.
std::string_view NeighborRowNode(std::string_view row) {
  const size_t first = row.find('\t');
  if (first == std::string_view::npos) return {};
  const size_t second = row.find('\t', first + 1);
  if (second == std::string_view::npos) return {};
  return row.substr(second + 1);
}

/// Inverts serve::RenderNodeName: "E:alice" -> (kEntity, "alice"), the
/// name a view into `render`.
bool ParseRender(std::string_view render, serve::NodeKey* node) {
  if (render.size() < 2 || render[1] != ':') return false;
  switch (render[0]) {
    case 'E':
      node->first = graph::NodeKind::kEntity;
      break;
    case 'T':
      node->first = graph::NodeKind::kText;
      break;
    case 'C':
      node->first = graph::NodeKind::kClass;
      break;
    default:
      return false;
  }
  node->second = render.substr(2);
  return true;
}

/// The member call that answers `query`.
auto ExecuteOn(const serve::Query& query) {
  return [&query](const ShardMember& member, uint64_t span_id) {
    return member.ExecuteTraced(query, span_id);
  };
}

/// The rows of a routed answer, or its error.
Result<serve::QueryResult> RowsOf(Result<serve::EpochTaggedResult> tagged) {
  if (!tagged.ok()) return tagged.status();
  return std::move(tagged->rows);
}

}  // namespace

size_t ShardOf(std::string_view subject, graph::NodeKind kind,
               size_t num_shards) {
  if (num_shards <= 1) return 0;
  return Fnv1a64(serve::RenderNodeName(subject, kind)) % num_shards;
}

QueryRouter::QueryRouter(std::vector<std::vector<ShardMember*>> members,
                         std::vector<PrimaryMember*> primaries,
                         const ClusterOptions& options)
    : members_(std::move(members)),
      primaries_(std::move(primaries)),
      options_(options) {
  committed_.reserve(members_.size());
  health_.reserve(members_.size());
  for (const auto& group : members_) {
    committed_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    std::vector<std::unique_ptr<MemberHealth>> group_health;
    group_health.reserve(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      group_health.push_back(
          std::make_unique<MemberHealth>(options_.breaker_failure_threshold));
    }
    health_.push_back(std::move(group_health));
  }
  if (options_.registry != nullptr) {
    failovers_metric_ = &options_.registry->GetCounter("cluster.failovers");
    shed_metric_ = &options_.registry->GetCounter("cluster.requests.shed");
    stale_metric_ = &options_.registry->GetCounter("cluster.stale_rejects");
    for (size_t k = 0; k < serve::kNumQueryKinds; ++k) {
      stage_fanout_[k] = &obs::StageHistogram(
          *options_.registry, obs::Stage::kFanout,
          serve::QueryKindName(static_cast<serve::QueryKind>(k)));
    }
  }
}

Status QueryRouter::Apply(std::span<const store::Mutation> mutations) {
  std::vector<std::vector<store::Mutation>> per_shard(members_.size());
  for (const store::Mutation& m : mutations) {
    per_shard[ShardOf(m.subject, m.subject_kind, members_.size())]
        .push_back(m);
  }
  for (size_t shard = 0; shard < per_shard.size(); ++shard) {
    if (per_shard[shard].empty()) continue;
    KG_RETURN_IF_ERROR(primaries_[shard]->ApplyBatch(per_shard[shard]));
    committed_[shard]->store(primaries_[shard]->log_end(),
                             std::memory_order_release);
  }
  return Status::OK();
}

bool QueryRouter::AllowMember(MemberHealth& health, bool* is_probe) {
  std::lock_guard<std::mutex> lock(health.mu);
  if (health.breaker.Allow()) return true;
  if (++health.skips_while_open >= options_.breaker_probe_interval) {
    health.skips_while_open = 0;
    *is_probe = true;
    probes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void QueryRouter::RecordOutcome(MemberHealth& health, bool ok,
                                bool was_probe) {
  std::lock_guard<std::mutex> lock(health.mu);
  if (ok) {
    if (was_probe || health.breaker.open()) {
      // CircuitBreaker opens permanently by design; a successful probe
      // of a revived member earns it a fresh breaker.
      health.breaker = CircuitBreaker(options_.breaker_failure_threshold);
    }
    health.breaker.RecordSuccess();
  } else {
    health.breaker.RecordFailure();
  }
}

template <typename Tagged, typename Ask>
Result<Tagged> QueryRouter::AskShard(size_t shard, obs::Span* parent,
                                     const Ask& ask) {
  obs::Span shard_span = parent->Child("shard@" + std::to_string(shard));
  const uint64_t committed =
      committed_[shard]->load(std::memory_order_acquire);
  const auto& group = members_[shard];
  for (size_t i = 0; i < group.size(); ++i) {
    MemberHealth& health = *health_[shard][i];
    bool is_probe = false;
    if (!AllowMember(health, &is_probe)) continue;
    // Named only when traced: "member.<label>" outgrows the small-string
    // buffer, and untraced reads should not allocate it per attempt.
    obs::Span member_span =
        shard_span.active() ? shard_span.Child("member." + group[i]->label())
                            : obs::Span();
    Result<Tagged> tagged = ask(*group[i], member_span.id());
    if (!tagged.ok()) {
      member_span.SetAttr("error", tagged.status().message());
      RecordOutcome(health, false, is_probe);
      continue;
    }
    RecordOutcome(health, true, is_probe);
    member_span.SetAttr("epoch", tagged->epoch);
    if (tagged->epoch < committed) {
      // Healthy but unable to prove freshness: not a fault, keep
      // walking the failover order.
      member_span.SetAttr("stale", "true");
      stale_rejects_.fetch_add(1, std::memory_order_relaxed);
      if (stale_metric_ != nullptr) stale_metric_->Inc();
      continue;
    }
    if (i != 0) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      if (failovers_metric_ != nullptr) failovers_metric_->Inc();
    }
    return tagged;
  }
  shard_span.SetAttr("shed", "true");
  shed_.fetch_add(1, std::memory_order_relaxed);
  if (shed_metric_ != nullptr) shed_metric_->Inc();
  return Status::Unavailable("shard " + std::to_string(shard) +
                             ": no member could serve at the required "
                             "staleness bound");
}

template <typename Tagged, typename Ask>
Result<std::vector<Tagged>> QueryRouter::Scatter(obs::Span* parent,
                                                 double* fanout_us,
                                                 const Ask& ask) {
  WallTimer timer;
  auto run = [&]() -> Result<std::vector<Tagged>> {
    std::vector<Tagged> parts;
    parts.reserve(members_.size());
    for (size_t shard = 0; shard < members_.size(); ++shard) {
      KG_ASSIGN_OR_RETURN(Tagged part, AskShard<Tagged>(shard, parent, ask));
      parts.push_back(std::move(part));
    }
    return parts;
  };
  Result<std::vector<Tagged>> parts = run();
  if (fanout_us != nullptr) *fanout_us += timer.ElapsedSeconds() * 1e6;
  return parts;
}

Result<serve::QueryResult> QueryRouter::FanOut(const serve::Query& query,
                                               obs::Span* parent,
                                               double* fanout_us) {
  KG_ASSIGN_OR_RETURN(std::vector<serve::EpochTaggedResult> parts,
                      Scatter<serve::EpochTaggedResult>(parent, fanout_us,
                                                        ExecuteOn(query)));
  std::vector<serve::QueryResult> rows;
  rows.reserve(parts.size());
  for (serve::EpochTaggedResult& part : parts) {
    rows.push_back(std::move(part.rows));
  }
  return serve::MergeShardResults(std::move(rows));
}

Result<serve::QueryResult> QueryRouter::TopKRelated(
    const serve::Query& query, obs::Span* parent, double* fanout_us) {
  if (query.k == 0) return serve::QueryResult{};
  const std::string center =
      serve::RenderNodeName(query.node, query.node_kind);

  // Round 1: the center's distinct neighbors, cluster-wide (out-edges
  // live on the center's shard, in-edges on each subject's shard).
  KG_ASSIGN_OR_RETURN(
      const serve::QueryResult ring,
      FanOut(serve::Query::Neighborhood(query.node, query.node_kind),
             parent, fanout_us));
  std::vector<serve::NodeKey> neighbors;  // Views into `ring`.
  for (const std::string& row : ring) {
    const std::string_view node = NeighborRowNode(row);
    serve::NodeKey n;
    if (node == center || !ParseRender(node, &n)) continue;
    neighbors.push_back(n);
  }
  std::sort(neighbors.begin(), neighbors.end());
  neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                  neighbors.end());
  if (neighbors.empty()) return serve::QueryResult{};

  // Round 2: one request per shard carrying every neighbor n; each shard
  // answers with its share of n's entity adjacency (n's out-edges live on
  // n's shard, its in-edges on each subject's shard).
  KG_ASSIGN_OR_RETURN(
      const std::vector<store::EpochTaggedAdjacency> parts,
      Scatter<store::EpochTaggedAdjacency>(
          parent, fanout_us,
          [&](const ShardMember& member, uint64_t span_id) {
            return member.AdjacentEntitiesTraced(neighbors, span_id);
          }));

  // Each distinct (n, m) pair scores one shared-neighbor path
  // center—n—m, which reproduces the single-store engine exactly. The
  // pair sits on two shards when both n→m and m→n exist, which is why
  // shards return lists, not counts: `last` dedupes m across n's lists.
  // The table is keyed by views into the shard answers; only the k
  // winners are rendered.
  struct Score {
    uint32_t count = 0;
    size_t last = 0;  ///< 1 + index of the last neighbor that counted m.
  };
  const bool center_is_entity = query.node_kind == graph::NodeKind::kEntity;
  std::unordered_map<std::string_view, Score> score;
  for (size_t j = 0; j < neighbors.size(); ++j) {
    for (const store::EpochTaggedAdjacency& part : parts) {
      for (const std::string& m : part.entities[j]) {
        if (center_is_entity && m == query.node) continue;
        Score& s = score[m];
        if (s.last == j + 1) continue;
        s.last = j + 1;
        ++s.count;
      }
    }
  }

  // Rank through the engine's step with every tie comparing names
  // (by_id 0): entity names are unique, so the order is total.
  std::vector<std::string_view> names;
  std::vector<uint32_t> counts;
  names.reserve(score.size());
  counts.reserve(score.size());
  for (const auto& [m, s] : score) {
    names.push_back(m);
    counts.push_back(s.count);
  }
  std::vector<serve::NodeId> scored(names.size());
  std::iota(scored.begin(), scored.end(), serve::NodeId{0});
  return serve::RankTopK(std::move(scored), counts, query.k, 0,
                         [&](serve::NodeId i) { return names[i]; });
}

Result<serve::QueryResult> QueryRouter::Execute(const serve::Query& query) {
  const char* kind_name = serve::QueryKindName(query.kind);
  obs::Span root =
      obs::Tracer::Start(options_.tracer, std::string("route.") + kind_name);
  WallTimer timer;
  double fanout_us = 0.0;
  Result<serve::QueryResult> result =
      Status::InvalidArgument("unknown query kind");
  switch (query.kind) {
    case serve::QueryKind::kPointLookup:
      result = RowsOf(AskShard<serve::EpochTaggedResult>(
          ShardOf(query.node, query.node_kind, members_.size()), &root,
          ExecuteOn(query)));
      break;
    case serve::QueryKind::kNeighborhood:
    case serve::QueryKind::kAttributeByType:
      result = FanOut(query, &root, &fanout_us);
      break;
    case serve::QueryKind::kTopKRelated:
      result = TopKRelated(query, &root, &fanout_us);
      break;
  }
  const size_t k = static_cast<size_t>(query.kind);
  if (query.kind != serve::QueryKind::kPointLookup &&
      stage_fanout_[k] != nullptr) {
    stage_fanout_[k]->Observe(fanout_us);
  }
  if (!result.ok()) root.SetAttr("error", result.status().message());
  const uint64_t root_id = root.id();
  root.End();
  if (obs::SlowQueryRing* ring = options_.slow_ring) {
    obs::SlowQuery slow;
    slow.trace_id = root_id;
    slow.root_span_id = root_id;
    slow.query_class = kind_name;
    slow.duration_ticks =
        obs::Histogram::ToTicks(timer.ElapsedSeconds() * 1e6);
    slow.seq = route_seq_.fetch_add(1, std::memory_order_relaxed);
    slow.stage_ticks = {
        {obs::Stage::kFanout, obs::Histogram::ToTicks(fanout_us)}};
    ring->Offer(std::move(slow));
  }
  return result;
}

QueryRouter::Stats QueryRouter::stats() const {
  Stats s;
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.stale_rejects = stale_rejects_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace kg::cluster
