#ifndef KGRAPH_SERVE_QUERY_ENGINE_H_
#define KGRAPH_SERVE_QUERY_ENGINE_H_

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"
#include "serve/lru_cache.h"
#include "serve/snapshot.h"

namespace kg::serve {

/// The four point-read shapes consumer KG serving is made of (§5's
/// knowledge-based QA: entity cards, neighborhoods, typed attribute
/// scans, related-entity shelves).
enum class QueryKind : uint8_t {
  kPointLookup = 0,     ///< Objects of (node, predicate, ?).
  kNeighborhood = 1,    ///< All out- and in-edges of a node.
  kAttributeByType = 2, ///< (s, predicate, ?) for every s of a class.
  kTopKRelated = 3,     ///< Entities ranked by shared-neighbor count.
};

inline constexpr size_t kNumQueryKinds = 4;

/// Canonical lower_snake name of `kind` (stable; used for stage metrics
/// and the JSON report).
const char* QueryKindName(QueryKind kind);

/// One serving query. Nodes are addressed by (name, kind) exactly as in
/// the KnowledgeGraph vocabulary; names that are not in the snapshot yield
/// empty results (absence of knowledge is a normal answer, never an
/// error).
struct Query {
  QueryKind kind = QueryKind::kPointLookup;
  /// Subject / center node (point lookup, neighborhood, top-k).
  std::string node;
  graph::NodeKind node_kind = graph::NodeKind::kEntity;
  /// Attribute predicate (point lookup, attribute-by-type).
  std::string predicate;
  /// Class node name + membership predicate (attribute-by-type).
  std::string type_name;
  std::string type_predicate = "type";
  /// Result budget (top-k).
  size_t k = 10;

  static Query PointLookup(std::string node, std::string predicate,
                           graph::NodeKind kind = graph::NodeKind::kEntity);
  static Query Neighborhood(std::string node,
                            graph::NodeKind kind = graph::NodeKind::kEntity);
  static Query AttributeByType(std::string type_name, std::string predicate,
                               std::string type_predicate = "type");
  static Query TopKRelated(std::string node, size_t k,
                           graph::NodeKind kind = graph::NodeKind::kEntity);

  /// Injective canonical rendering (length-prefixed fields), used as the
  /// result-cache key. Two queries with equal keys are the same query.
  std::string CacheKey() const;
};

/// Deterministic result rows. Every query kind defines a total order on
/// its rows (lexicographic, except top-k: score-desc then name), so equal
/// knowledge always serves byte-equal results — the invariant the
/// property harness checks against a brute-force scan.
///
/// Row shapes ("<node>" is RenderNode's kind-tagged form):
///   point lookup:      "<object>"
///   neighborhood:      "out\t<predicate>\t<object>" /
///                      "in\t<predicate>\t<subject>"
///   attribute-by-type: "<subject>\t<object>"
///   top-k related:     "<entity>\t<shared-neighbor count>"
using QueryResult = std::vector<std::string>;

/// "E:name" / "T:name" / "C:name" — the kind-tagged node rendering used in
/// result rows (kinds can share a surface name, so the tag keeps rows
/// unambiguous).
std::string RenderNodeName(std::string_view name, graph::NodeKind kind);

/// An attribute-by-type row, "<subject>\t<object>", built in one
/// allocation.
std::string RenderAttributeRow(std::string_view subject,
                               graph::NodeKind subject_kind,
                               std::string_view object,
                               graph::NodeKind object_kind);

/// A neighborhood row, "<direction>\t<predicate>\t<node>", built in one
/// allocation; `direction` is "in" or "out".
std::string RenderNeighborhoodRow(std::string_view direction,
                                  std::string_view predicate,
                                  std::string_view node,
                                  graph::NodeKind kind);

/// Top-k's rank-and-render step, shared by QueryEngine and the versioned
/// store's merged read. `scored` lists each scored entity id once, and
/// `counts[id]` is its shared-neighbour count. Keeps the `k` best by
/// count, descending, then by name, ascending, and renders them as top-k
/// rows. Two ids below `by_id` compare as integers, since snapshot ids
/// number entities in name order; a pair with an id at or past it
/// compares `name_of`, which also names the rendered rows.
QueryResult RankTopK(std::vector<NodeId> scored,
                     const std::vector<uint32_t>& counts, size_t k,
                     NodeId by_id,
                     const std::function<std::string_view(NodeId)>& name_of);

/// A query answer tagged with the replication epoch the serving member
/// had applied when the answer was computed. The tag is read *before*
/// the rows, so the rows always reflect at least the tagged state —
/// that inequality is what lets a router enforce a bounded-staleness
/// policy: an answer tagged >= the router's committed epoch is provably
/// equal to the committed state's answer (kg::cluster::QueryRouter).
struct EpochTaggedResult {
  uint64_t epoch = 0;
  QueryResult rows;
};

/// Deterministic scatter-gather merge for shard-partitioned answers:
/// folds per-shard sorted row lists (indexed by shard) into one sorted
/// list with a stable merge, so equal rows keep lower-shard-index order
/// and the output is a pure function of the inputs. Correct for the
/// row-sorted query classes (point lookup, neighborhood,
/// attribute-by-type) over a disjoint subject partition, where every
/// row is produced by exactly one shard; top-k rows are score-ordered
/// and need the router's rank-aware path instead.
QueryResult MergeShardResults(std::vector<QueryResult> parts);

struct ServeOptions {
  /// Sharding policy for BatchExecute.
  ExecPolicy exec;
  /// Result-cache entries; 0 serves every query uncached.
  size_t cache_capacity = 0;
  /// Per-class "serve.queries.<class>" counters land here when
  /// non-null (one sharded-atomic increment per query — hot-path
  /// safe; see bench_obs for the measured bound). Not owned; must
  /// outlive the engine.
  obs::MetricsRegistry* registry = nullptr;
  /// With `registry`, also time every query into a
  /// "serve.latency_us.<class>" histogram. Costs two clock reads per
  /// query, so it is opt-in rather than implied by `registry`.
  bool time_queries = false;
};

/// Read path over an immutable KgSnapshot. Thread-safe: Execute only
/// reads the snapshot, and the result cache is internally sharded/locked.
/// BatchExecute shards a query vector over ExecPolicy with index-addressed
/// result slots, so its output is bit-identical at any thread count (the
/// cache can reorder *work*, never *answers*).
class QueryEngine {
 public:
  explicit QueryEngine(const KgSnapshot& snapshot, ServeOptions options = {});

  /// Answers one query, through the result cache when enabled.
  QueryResult Execute(const Query& query) const;

  /// Execute with the forward-compatibility gate (CheckSchema): refuses
  /// with kUnavailable — the retriable "try another replica" signal,
  /// never a crash or a plausible-but-wrong empty answer — when the
  /// snapshot's schema generation is newer than this build understands.
  /// The RPC handshake checks the client's version at connection time,
  /// a different rule; this is the path the RPC server serves through.
  Result<QueryResult> TryExecute(const Query& query) const;

  /// Bypasses the cache (the reference path the cache is checked against).
  QueryResult ExecuteUncached(const Query& query) const;

  /// Answers `queries[i]` into slot i, sharded over `options.exec`.
  std::vector<QueryResult> BatchExecute(
      const std::vector<Query>& queries) const;

  /// Null when the cache is disabled.
  ShardedLruCache* cache() const { return cache_.get(); }

  const KgSnapshot& snapshot() const { return snapshot_; }

 private:
  QueryResult ExecuteCacheAware(const Query& query) const;
  QueryResult PointLookup(const Query& query) const;
  QueryResult Neighborhood(const Query& query) const;
  QueryResult AttributeByType(const Query& query) const;
  QueryResult TopKRelated(const Query& query) const;

  const KgSnapshot& snapshot_;
  ServeOptions options_;
  // Pre-resolved registry handles (null when options_.registry is):
  // registration takes a lock, so it happens once here, never per query.
  std::array<obs::Counter*, kNumQueryKinds> query_counters_{};
  std::array<obs::Histogram*, kNumQueryKinds> latency_us_{};
  // Mutable by design: caching must be invisible to callers, and the
  // sharded cache is internally synchronized.
  mutable std::unique_ptr<ShardedLruCache> cache_;
};

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_QUERY_ENGINE_H_
