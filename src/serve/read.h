#ifndef KGRAPH_SERVE_READ_H_
#define KGRAPH_SERVE_READ_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace kg::serve {

/// A node addressed by (kind, name), as queries and mutations address it.
using NodeKey = std::pair<graph::NodeKind, std::string_view>;

/// An edge walk's direction, seen from the walked node.
enum class Direction { kOut, kIn };

/// Restricts a walk to one predicate id; nullopt walks every predicate.
using OnlyPredicate = std::optional<PredicateId>;

// ---- Views ----------------------------------------------------------------
//
// Each query class is written once, below, over a *view*: an id space of
// nodes and predicates plus an edge walk over it. A view `v` provides
//
//   v.FindNode(n)       NodeKey n's id, kInvalidNode when the view lacks it;
//   v.FindPredicate(p)  predicate p's id, kInvalidNode when it lacks it;
//   v.NodeName(id), v.NodeKindOf(id), v.PredicateName(id)
//                       the names of its ids, viewing into storage that
//                       outlives the read;
//   v.num_nodes()       one past its largest node id;
//   v.num_base_nodes()  ids below it number nodes in (kind, name) order,
//                       so two of them compare as integers; ids at or past
//                       it come in no name order;
//   v.DegreeHint(id)    a reserve hint for node id's edges, both
//                       directions;
//   v.ForEachEdge(id, dir, only, fn)
//                       calls fn(predicate id, far id) once for each live
//                       `dir` edge of node `id`, only under predicate
//                       `*only` when set, in no promised order. A node or
//                       predicate of kInvalidNode has no edges.
//
// The bodies read ids only, and sort whatever rows come out of byte order.
// The view is a template parameter, not a virtual interface: a call per
// edge would cost the scan classes. SnapshotView is the immutable engine's;
// a versioned store's StoreEpoch merges its overlay into the rows.

/// The snapshot's CSR rows and nothing else.
struct SnapshotView {
  const KgSnapshot& base;

  NodeId FindNode(const NodeKey& n) const {
    return base.FindNode(n.second, n.first);
  }
  PredicateId FindPredicate(std::string_view name) const {
    return base.FindPredicate(name);
  }
  std::string_view NodeName(NodeId id) const { return base.NodeName(id); }
  graph::NodeKind NodeKindOf(NodeId id) const { return base.NodeKindOf(id); }
  std::string_view PredicateName(PredicateId id) const {
    return base.PredicateName(id);
  }
  size_t num_nodes() const { return base.num_nodes(); }
  size_t num_base_nodes() const { return base.num_nodes(); }
  size_t DegreeHint(NodeId id) const {
    return base.OutDegree(id) + base.InDegree(id);
  }

  template <typename Fn>
  void ForEachEdge(NodeId id, Direction dir, OnlyPredicate only,
                   const Fn& fn) const {
    if (only == kInvalidNode) return;
    for (const KgSnapshot::Edge& e :
         dir == Direction::kOut ? base.OutEdges(id) : base.InEdges(id)) {
      if (only && e.first < *only) continue;
      if (only && e.first > *only) break;
      fn(e.first, e.second);
    }
  }
};

/// Top-k's rank step. `scored` lists each scored entity id once, and
/// `counts[id]` is its shared-neighbour count. Keeps the `k` best by
/// count, descending, then by name, ascending, best first. Two ids below
/// `by_id` compare as integers, since snapshot ids number entities in
/// name order; a pair with an id at or past it (an overlay's, or one only
/// the request names) compares `name_of(id)`.
template <typename NameOf>
void KeepTopK(std::vector<NodeId>* scored, const std::vector<uint32_t>& counts,
              size_t k, NodeId by_id, const NameOf& name_of) {
  const auto better = [&](NodeId a, NodeId b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    if (a < by_id && b < by_id) return a < b;
    return name_of(a) < name_of(b);
  };
  const auto cut = scored->begin() + std::min(k, scored->size());
  std::partial_sort(scored->begin(), cut, scored->end(), better);
  scored->erase(cut, scored->end());
}

/// The top-k rows of `best`, ranked entity ids that `name_of` names.
template <typename NameOf>
QueryResult RenderTopK(const std::vector<NodeId>& best,
                       const std::vector<uint32_t>& counts,
                       const NameOf& name_of) {
  QueryResult rows;
  rows.reserve(best.size());
  for (const NodeId m : best) {
    std::string row = RenderNodeName(name_of(m), graph::NodeKind::kEntity);
    row.push_back('\t');
    row.append(std::to_string(counts[m]));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// KeepTopK, rendered.
template <typename NameOf>
QueryResult RankTopK(std::vector<NodeId> scored,
                     const std::vector<uint32_t>& counts, size_t k,
                     NodeId by_id, const NameOf& name_of) {
  KeepTopK(&scored, counts, k, by_id, name_of);
  return RenderTopK(scored, counts, name_of);
}

/// One entity of a shard's share of a routed top-k: its name and its
/// shared-neighbour count.
struct ScoredEntity {
  std::string name;
  uint32_t count = 0;

  friend bool operator==(const ScoredEntity&, const ScoredEntity&) = default;
};

/// An out-hop pair of a routed top-k: the ring node at index `n` has an
/// out-edge to the entity named `m`.
struct RingHop {
  uint32_t n = 0;
  std::string_view m;
};

/// Top-k's counting step, written once for the single-store top-k and a
/// cluster member's share of a routed one. Counting runs in the view's id
/// space; only names the request brings that the view lacks (a routed
/// top-k's ring and hop names from other shards) get local ids past it,
/// so names are read only for tie-breaks past num_base_nodes() and for
/// the k answers.
template <typename View>
class RingCounter {
 public:
  explicit RingCounter(const View& view)
      : view_(view),
        view_n_(static_cast<uint32_t>(view.num_nodes())),
        counts_(view_n_) {}

  uint32_t LocalId(const NodeKey& n) {
    const NodeId id = view_.FindNode(n);
    if (id != kInvalidNode) return id;
    const auto [it, inserted] = extra_ids_.emplace(
        n, view_n_ + static_cast<uint32_t>(extra_.size()));
    if (inserted) {
      extra_.push_back(n);
      counts_.push_back(0);
    }
    return it->second;
  }

  /// Sorted-unique local ids adjacent to `id` over its `dirs` walks, plus
  /// the entity of every hop in `hops`: several predicates between one
  /// pair are one adjacency. An id past the view's can only come from a
  /// corrupt row, and is dropped.
  std::vector<uint32_t> Adjacent(uint32_t id, std::span<const Direction> dirs,
                                 std::span<const RingHop> hops = {}) {
    std::vector<uint32_t> out;
    if (id < view_n_) {
      out.reserve(view_.DegreeHint(id) + hops.size());
      for (const Direction dir : dirs) {
        view_.ForEachEdge(id, dir, std::nullopt, [&](PredicateId, NodeId m) {
          if (m < view_n_) out.push_back(m);
        });
      }
    }
    for (const RingHop& hop : hops) {
      out.push_back(LocalId(NodeKey{graph::NodeKind::kEntity, hop.m}));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Counts, for every entity m other than `center`, the ring nodes that
  /// m is adjacent to over their `dirs` walks or through a hop; `ring`
  /// holds distinct local ids, and `hops` come in ring order. Returns the
  /// k best, best first (KeepTopK).
  std::vector<NodeId> Count(std::span<const uint32_t> ring,
                            std::span<const Direction> dirs,
                            std::span<const RingHop> hops, uint32_t center,
                            size_t k) {
    std::vector<NodeId> scored;
    auto hop = hops.begin();
    for (size_t j = 0; j < ring.size(); ++j) {
      const auto first = hop;
      while (hop != hops.end() && hop->n == j) ++hop;
      for (const uint32_t m : Adjacent(ring[j], dirs, {first, hop})) {
        if (m == center || KindOf(m) != graph::NodeKind::kEntity) continue;
        if (counts_[m]++ == 0) scored.push_back(m);
      }
    }
    KeepTopK(&scored, counts_, k,
             static_cast<NodeId>(view_.num_base_nodes()),
             [&](uint32_t id) { return NameOf(id); });
    return scored;
  }

  graph::NodeKind KindOf(uint32_t id) const {
    return id < view_n_ ? view_.NodeKindOf(id) : extra_[id - view_n_].first;
  }
  std::string_view NameOf(uint32_t id) const {
    return id < view_n_ ? view_.NodeName(id) : extra_[id - view_n_].second;
  }
  /// One count per local id: size() == the view's node count + extra ids.
  const std::vector<uint32_t>& counts() const { return counts_; }

 private:
  const View& view_;
  const uint32_t view_n_;
  std::map<NodeKey, uint32_t> extra_ids_;
  std::vector<NodeKey> extra_;  // extra_[id - view_n_]
  std::vector<uint32_t> counts_;
};

/// Both edge directions: the single-store top-k walks each ring node's
/// whole adjacency.
inline constexpr Direction kBothDirections[] = {Direction::kOut,
                                                Direction::kIn};

// ---- The four query bodies ----------------------------------------------

template <typename View>
QueryResult ReadPointLookup(const View& view, const Query& q) {
  QueryResult rows;
  view.ForEachEdge(view.FindNode(NodeKey{q.node_kind, q.node}),
                   Direction::kOut, view.FindPredicate(q.predicate),
                   [&](PredicateId, NodeId o) {
                     rows.push_back(RenderNodeName(view.NodeName(o),
                                                   view.NodeKindOf(o)));
                   });
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename View>
QueryResult ReadNeighborhood(const View& view, const Query& q) {
  const NodeId id = view.FindNode(NodeKey{q.node_kind, q.node});
  QueryResult rows;
  rows.reserve(view.DegreeHint(id));
  // In-rows first: "in" sorts before "out", and snapshot rows come in
  // (predicate id, node id) order, which is byte order unless kinds mix, a
  // name byte sorts below '\t' or an overlay adds rows; only then does it
  // sort.
  for (const Direction dir : {Direction::kIn, Direction::kOut}) {
    const std::string_view tag = dir == Direction::kOut ? "out" : "in";
    view.ForEachEdge(id, dir, std::nullopt, [&](PredicateId p, NodeId m) {
      rows.push_back(RenderNeighborhoodRow(tag, view.PredicateName(p),
                                           view.NodeName(m),
                                           view.NodeKindOf(m)));
    });
  }
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  return rows;
}

template <typename View>
QueryResult ReadAttributeByType(const View& view, const Query& q) {
  const PredicateId attr = view.FindPredicate(q.predicate);
  QueryResult rows;
  // The members are the class's in-edges under the type predicate.
  view.ForEachEdge(
      view.FindNode(NodeKey{graph::NodeKind::kClass, q.type_name}),
      Direction::kIn, view.FindPredicate(q.type_predicate),
      [&](PredicateId, NodeId s) {
        const std::string_view name = view.NodeName(s);
        const graph::NodeKind kind = view.NodeKindOf(s);
        view.ForEachEdge(s, Direction::kOut, attr, [&](PredicateId, NodeId o) {
          rows.push_back(RenderAttributeRow(name, kind, view.NodeName(o),
                                            view.NodeKindOf(o)));
        });
      });
  // Snapshot rows come in (subject id, object id) order. That is byte
  // order unless kinds mix (ids order E < T < C, tags C < E < T), one
  // member's name is a prefix of another's followed by a byte below '\t',
  // or an overlay adds rows; only then does it sort.
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  return rows;
}

/// Scores every entity m by the number of distinct length-2 paths
/// center — n — m (shared neighbours), both edge directions, any
/// predicate; the center never appears in its own shelf. The ring is the
/// center's adjacency, counted by RingCounter over both directions.
template <typename View>
QueryResult ReadTopKRelated(const View& view, const Query& q) {
  if (q.k == 0) return {};
  RingCounter<View> counter(view);
  const uint32_t center = counter.LocalId(NodeKey{q.node_kind, q.node});
  std::vector<uint32_t> ring = counter.Adjacent(center, kBothDirections);
  std::erase(ring, center);
  return RenderTopK(counter.Count(ring, kBothDirections, {}, center, q.k),
                    counter.counts(),
                    [&](uint32_t id) { return counter.NameOf(id); });
}

/// A cluster member's share of a routed top-k (DESIGN §14): the center's
/// `ring` (distinct nodes, never the center), counted by RingCounter over
/// the in-edges this view holds plus `hops`, the out-hop pairs the router
/// sent it, in ring order. Returns the k best as (name, count), best
/// first.
template <typename View>
std::vector<ScoredEntity> ReadRingScores(const View& view,
                                         const NodeKey& center,
                                         std::span<const NodeKey> ring,
                                         std::span<const RingHop> hops,
                                         size_t k) {
  static constexpr Direction kIn[] = {Direction::kIn};
  RingCounter<View> counter(view);
  const uint32_t center_id = counter.LocalId(center);
  std::vector<uint32_t> ring_ids;
  ring_ids.reserve(ring.size());
  for (const NodeKey& n : ring) ring_ids.push_back(counter.LocalId(n));
  std::vector<ScoredEntity> best;
  for (const NodeId m : counter.Count(ring_ids, kIn, hops, center_id, k)) {
    best.push_back(
        ScoredEntity{std::string(counter.NameOf(m)), counter.counts()[m]});
  }
  return best;
}

/// Answers `query` through `view`.
template <typename View>
QueryResult Read(const View& view, const Query& query) {
  switch (query.kind) {
    case QueryKind::kPointLookup:
      return ReadPointLookup(view, query);
    case QueryKind::kNeighborhood:
      return ReadNeighborhood(view, query);
    case QueryKind::kAttributeByType:
      return ReadAttributeByType(view, query);
    case QueryKind::kTopKRelated:
      return ReadTopKRelated(view, query);
  }
  return {};
}

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_READ_H_
