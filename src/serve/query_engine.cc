#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "serve/read.h"

namespace kg::serve {

namespace {

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
  return Read(SnapshotView{snapshot_}, query);
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

}  // namespace kg::serve
