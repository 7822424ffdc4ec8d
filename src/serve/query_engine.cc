#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"

namespace kg::serve {

namespace {

// Sorted-unique nodes adjacent to `id` (either edge direction). Multiple
// predicates between the same pair collapse to one adjacency.
std::vector<NodeId> AdjacentNodes(const KgSnapshot& snap, NodeId id) {
  std::vector<NodeId> out;
  out.reserve(snap.OutDegree(id) + snap.InDegree(id));
  for (const KgSnapshot::Edge& e : snap.OutEdges(id)) {
    out.push_back(e.second);
  }
  for (const KgSnapshot::Edge& e : snap.InEdges(id)) {
    out.push_back(e.second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string RenderNode(const KgSnapshot& snap, NodeId id) {
  return RenderNodeName(snap.NodeName(id), snap.NodeKindOf(id));
}

/// Appends `name`'s kind-tagged rendering ("E:name", see RenderNodeName).
void AppendNode(std::string* out, std::string_view name,
                graph::NodeKind kind) {
  char tag = 'E';
  switch (kind) {
    case graph::NodeKind::kEntity:
      tag = 'E';
      break;
    case graph::NodeKind::kText:
      tag = 'T';
      break;
    case graph::NodeKind::kClass:
      tag = 'C';
      break;
  }
  out->push_back(tag);
  out->push_back(':');
  out->append(name);
}

void AppendField(std::string* key, const std::string& field) {
  key->append(std::to_string(field.size()));
  key->push_back(':');
  key->append(field);
  key->push_back('|');
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPointLookup:
      return "point_lookup";
    case QueryKind::kNeighborhood:
      return "neighborhood";
    case QueryKind::kAttributeByType:
      return "attribute_by_type";
    case QueryKind::kTopKRelated:
      return "topk_related";
  }
  return "unknown";
}

std::string RenderNodeName(std::string_view name, graph::NodeKind kind) {
  std::string out;
  out.reserve(name.size() + 2);
  AppendNode(&out, name, kind);
  return out;
}

std::string RenderAttributeRow(std::string_view subject,
                               graph::NodeKind subject_kind,
                               std::string_view object,
                               graph::NodeKind object_kind) {
  std::string out;
  out.reserve(subject.size() + object.size() + 5);
  AppendNode(&out, subject, subject_kind);
  out.push_back('\t');
  AppendNode(&out, object, object_kind);
  return out;
}

std::string RenderNeighborhoodRow(std::string_view direction,
                                  std::string_view predicate,
                                  std::string_view node,
                                  graph::NodeKind kind) {
  std::string out;
  out.reserve(direction.size() + predicate.size() + node.size() + 4);
  out.append(direction);
  out.push_back('\t');
  out.append(predicate);
  out.push_back('\t');
  AppendNode(&out, node, kind);
  return out;
}

QueryResult RankTopK(std::vector<NodeId> scored,
                     const std::vector<uint32_t>& counts, size_t k,
                     NodeId by_id,
                     const std::function<std::string_view(NodeId)>& name_of) {
  const auto better = [&](NodeId a, NodeId b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    if (a < by_id && b < by_id) return a < b;
    return name_of(a) < name_of(b);
  };
  const auto cut = scored.begin() + std::min(k, scored.size());
  std::partial_sort(scored.begin(), cut, scored.end(), better);
  scored.erase(cut, scored.end());
  QueryResult rows;
  rows.reserve(scored.size());
  for (const NodeId m : scored) {
    std::string row = RenderNodeName(name_of(m), graph::NodeKind::kEntity);
    row.push_back('\t');
    row.append(std::to_string(counts[m]));
    rows.push_back(std::move(row));
  }
  return rows;
}

QueryResult MergeShardResults(std::vector<QueryResult> parts) {
  QueryResult merged;
  for (QueryResult& part : parts) {
    if (part.empty()) continue;
    if (merged.empty()) {
      merged = std::move(part);
      continue;
    }
    QueryResult next;
    next.reserve(merged.size() + part.size());
    // std::merge is stable: equal rows come from the lower-indexed
    // shard first, so the fold order *is* the tie-break rule.
    std::merge(std::make_move_iterator(merged.begin()),
               std::make_move_iterator(merged.end()),
               std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()),
               std::back_inserter(next));
    merged = std::move(next);
  }
  return merged;
}

Query Query::PointLookup(std::string node, std::string predicate,
                         graph::NodeKind kind) {
  Query q;
  q.kind = QueryKind::kPointLookup;
  q.node = std::move(node);
  q.node_kind = kind;
  q.predicate = std::move(predicate);
  return q;
}

Query Query::Neighborhood(std::string node, graph::NodeKind kind) {
  Query q;
  q.kind = QueryKind::kNeighborhood;
  q.node = std::move(node);
  q.node_kind = kind;
  return q;
}

Query Query::AttributeByType(std::string type_name, std::string predicate,
                             std::string type_predicate) {
  Query q;
  q.kind = QueryKind::kAttributeByType;
  q.type_name = std::move(type_name);
  q.predicate = std::move(predicate);
  q.type_predicate = std::move(type_predicate);
  return q;
}

Query Query::TopKRelated(std::string node, size_t k,
                         graph::NodeKind kind) {
  Query q;
  q.kind = QueryKind::kTopKRelated;
  q.node = std::move(node);
  q.node_kind = kind;
  q.k = k;
  return q;
}

std::string Query::CacheKey() const {
  std::string key;
  key.append(std::to_string(static_cast<int>(kind)));
  key.push_back('|');
  key.append(std::to_string(static_cast<int>(node_kind)));
  key.push_back('|');
  key.append(std::to_string(k));
  key.push_back('|');
  AppendField(&key, node);
  AppendField(&key, predicate);
  AppendField(&key, type_name);
  AppendField(&key, type_predicate);
  return key;
}

QueryEngine::QueryEngine(const KgSnapshot& snapshot, ServeOptions options)
    : snapshot_(snapshot), options_(std::move(options)) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ShardedLruCache>(options_.cache_capacity);
  }
  if (options_.registry != nullptr) {
    for (size_t i = 0; i < kNumQueryKinds; ++i) {
      const char* name = QueryKindName(static_cast<QueryKind>(i));
      query_counters_[i] = &options_.registry->GetCounter(
          std::string("serve.queries.") + name);
      if (options_.time_queries) {
        latency_us_[i] = &options_.registry->GetHistogram(
            std::string("serve.latency_us.") + name,
            obs::LatencyBucketsUs());
      }
    }
  }
}

QueryResult QueryEngine::Execute(const Query& query) const {
  const size_t k = static_cast<size_t>(query.kind);
  if (query_counters_[k] != nullptr) query_counters_[k]->Inc();
  // Hot path: no timing requested, so no clock reads.
  if (latency_us_[k] == nullptr) return ExecuteCacheAware(query);
  WallTimer timer;
  QueryResult result = ExecuteCacheAware(query);
  latency_us_[k]->Observe(timer.ElapsedSeconds() * 1e6);
  return result;
}

Result<QueryResult> QueryEngine::TryExecute(const Query& query) const {
  KG_RETURN_IF_ERROR(CheckSchema(snapshot_));
  return Execute(query);
}

QueryResult QueryEngine::ExecuteCacheAware(const Query& query) const {
  if (cache_ == nullptr) return ExecuteUncached(query);
  const std::string key = query.CacheKey();
  QueryResult cached;
  if (cache_->Get(key, {}, &cached)) return cached;
  QueryResult result = ExecuteUncached(query);
  cache_->Put(key, {}, result);
  return result;
}

QueryResult QueryEngine::ExecuteUncached(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kPointLookup:
      return PointLookup(query);
    case QueryKind::kNeighborhood:
      return Neighborhood(query);
    case QueryKind::kAttributeByType:
      return AttributeByType(query);
    case QueryKind::kTopKRelated:
      return TopKRelated(query);
  }
  return {};
}

std::vector<QueryResult> QueryEngine::BatchExecute(
    const std::vector<Query>& queries) const {
  std::vector<QueryResult> results(queries.size());
  // Index-addressed slots: shard i writes only results[b, e), so the
  // assembled vector is identical for any thread count or schedule.
  ParallelForChunked(options_.exec, queries.size(),
                     [&](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         results[i] = Execute(queries[i]);
                       }
                     });
  return results;
}

QueryResult QueryEngine::PointLookup(const Query& query) const {
  const auto node = snapshot_.FindNode(query.node, query.node_kind);
  const auto pred = snapshot_.FindPredicate(query.predicate);
  if (!node.ok() || !pred.ok()) return {};
  QueryResult rows;
  for (NodeId o : snapshot_.Objects(*node, *pred)) {
    rows.push_back(RenderNode(snapshot_, o));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

QueryResult QueryEngine::Neighborhood(const Query& query) const {
  const auto node = snapshot_.FindNode(query.node, query.node_kind);
  if (!node.ok()) return {};
  // In-rows first: "in" sorts before "out", and each row comes in
  // (predicate id, node id) order, which is byte order unless kinds mix
  // or a name byte sorts below '\t'; only then does it sort.
  QueryResult rows;
  rows.reserve(snapshot_.OutDegree(*node) + snapshot_.InDegree(*node));
  for (const KgSnapshot::Edge& e : snapshot_.InEdges(*node)) {
    rows.push_back(RenderNeighborhoodRow(
        "in", snapshot_.PredicateName(e.first), snapshot_.NodeName(e.second),
        snapshot_.NodeKindOf(e.second)));
  }
  for (const KgSnapshot::Edge& e : snapshot_.OutEdges(*node)) {
    rows.push_back(RenderNeighborhoodRow(
        "out", snapshot_.PredicateName(e.first), snapshot_.NodeName(e.second),
        snapshot_.NodeKindOf(e.second)));
  }
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  return rows;
}

QueryResult QueryEngine::AttributeByType(const Query& query) const {
  const auto cls =
      snapshot_.FindNode(query.type_name, graph::NodeKind::kClass);
  const auto type_pred = snapshot_.FindPredicate(query.type_predicate);
  const auto attr_pred = snapshot_.FindPredicate(query.predicate);
  if (!cls.ok() || !type_pred.ok() || !attr_pred.ok()) return {};
  // The members are one run of the class's in-edges, and each member's
  // attributes one run of its out-edges, so rows come out in (subject
  // id, object id) order. That is byte order unless kinds mix (ids order
  // E < T < C, tags C < E < T) or one member's name is a prefix of
  // another's followed by a byte below '\t'; only then does it sort.
  QueryResult rows;
  for (const KgSnapshot::Edge& member : snapshot_.InEdges(*cls)) {
    if (member.first < *type_pred) continue;
    if (member.first > *type_pred) break;
    const NodeId s = member.second;
    for (const KgSnapshot::Edge& e : snapshot_.OutEdges(s)) {
      if (e.first < *attr_pred) continue;
      if (e.first > *attr_pred) break;
      rows.push_back(RenderAttributeRow(
          snapshot_.NodeName(s), snapshot_.NodeKindOf(s),
          snapshot_.NodeName(e.second), snapshot_.NodeKindOf(e.second)));
    }
  }
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  return rows;
}

QueryResult QueryEngine::TopKRelated(const Query& query) const {
  const auto center = snapshot_.FindNode(query.node, query.node_kind);
  if (!center.ok() || query.k == 0) return {};
  // Score every entity m by the number of distinct length-2 paths
  // center — n — m (shared neighbors), both edge directions, any
  // predicate. The center itself never appears in its own shelf. An id
  // past the count array can only come from corrupt postings, and is
  // skipped.
  std::vector<uint32_t> counts(snapshot_.num_nodes());
  std::vector<NodeId> scored;
  for (NodeId n : AdjacentNodes(snapshot_, *center)) {
    if (n == *center) continue;
    for (NodeId m : AdjacentNodes(snapshot_, n)) {
      if (m == *center || m >= counts.size()) continue;
      if (snapshot_.NodeKindOf(m) != graph::NodeKind::kEntity) continue;
      if (counts[m]++ == 0) scored.push_back(m);
    }
  }
  return RankTopK(std::move(scored), counts, query.k,
                  static_cast<NodeId>(counts.size()),
                  [this](NodeId m) { return snapshot_.NodeName(m); });
}

}  // namespace kg::serve
