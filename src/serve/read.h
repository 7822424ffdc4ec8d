#ifndef KGRAPH_SERVE_READ_H_
#define KGRAPH_SERVE_READ_H_

#include <algorithm>
#include <cstdint>
#include <map>
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

/// Restricts a walk to one predicate: `name` filters the edges a view
/// reports by name, and `id` — its base id, kInvalidNode when the base
/// lacks it — bounds the base row to that predicate's run.
struct OnePredicate {
  std::string_view name;
  PredicateId id;
};

// ---- Views ----------------------------------------------------------------
//
// Each query class is written once, below, over a *view*: a base snapshot
// plus an edge walk. A view `v` provides
//
//   v.base           the KgSnapshot that base ids index;
//   v.BaseId(n)      NodeKey n's base id, kInvalidNode when the base lacks
//                    it;
//   v.Only(name)     the OnePredicate for `name`;
//   v.ForEachEdge(id, n, dir, only, on_base, on_overlay)
//                    visits each live `dir` edge of node n (base id `id`,
//                    or kInvalidNode) exactly once, under `only`'s
//                    predicate when non-null. An edge whose three parts
//                    the base names goes to on_base(predicate id, far id),
//                    in (predicate, far id) order; an edge with a part only
//                    an overlay names goes to on_overlay(predicate name,
//                    far NodeKey), whose views outlive the read.
//
// The view is a template parameter, not a virtual interface: a call per
// edge would cost the scan classes. SnapshotView is the immutable engine's;
// the versioned store's MergedView merges an epoch's overlay into the rows.

/// The snapshot's CSR rows and nothing else: every edge is a base edge.
struct SnapshotView {
  const KgSnapshot& base;

  NodeId BaseId(const NodeKey& n) const {
    return base.FindNode(n.second, n.first);
  }

  OnePredicate Only(std::string_view name) const {
    return OnePredicate{name, base.FindPredicate(name)};
  }

  template <typename OnBase, typename OnOverlay>
  void ForEachEdge(NodeId id, const NodeKey& /*n*/, Direction dir,
                   const OnePredicate* only, const OnBase& on_base,
                   const OnOverlay& /*on_overlay*/) const {
    if (only != nullptr && only->id == kInvalidNode) return;
    for (const KgSnapshot::Edge& e :
         dir == Direction::kOut ? base.OutEdges(id) : base.InEdges(id)) {
      if (only != nullptr && e.first < only->id) continue;
      if (only != nullptr && e.first > only->id) break;
      on_base(e.first, e.second);
    }
  }
};

/// Top-k's rank step. `scored` lists each scored entity id once, and
/// `counts[id]` is its shared-neighbour count. Keeps the `k` best by
/// count, descending, then by name, ascending, best first. Two ids below
/// `by_id` compare as integers, since snapshot ids number entities in
/// name order; a pair with an id at or past it compares `name_of(id)`.
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
/// cluster member's share of a routed one. Counting runs in id space:
/// base nodes keep their snapshot ids, and nodes only an overlay or the
/// request names get local ids past the base's, so names are read only
/// for tie-breaks that involve such a node and for the k answers.
template <typename View>
class RingCounter {
 public:
  explicit RingCounter(const View& view)
      : view_(view),
        base_n_(static_cast<uint32_t>(view.base.num_nodes())),
        counts_(base_n_) {}

  uint32_t LocalId(const NodeKey& n) {
    const NodeId id = view_.BaseId(n);
    if (id != kInvalidNode) return id;
    const auto [it, inserted] = extra_ids_.emplace(
        n, base_n_ + static_cast<uint32_t>(extra_.size()));
    if (inserted) {
      extra_.push_back(n);
      counts_.push_back(0);
    }
    return it->second;
  }

  /// Sorted-unique local ids adjacent to `id` over its `dirs` walks, plus
  /// the entity of every hop in `hops`: several predicates between one
  /// pair are one adjacency. A base id past the node count can only come
  /// from a corrupt row, and is dropped.
  std::vector<uint32_t> Adjacent(uint32_t id, std::span<const Direction> dirs,
                                 std::span<const RingHop> hops = {}) {
    const NodeId base_id = id < base_n_ ? id : kInvalidNode;
    const NodeKey n{KindOf(id), NameOf(id)};
    std::vector<uint32_t> out;
    out.reserve(view_.base.OutDegree(base_id) + view_.base.InDegree(base_id) +
                hops.size());
    for (const Direction dir : dirs) {
      view_.ForEachEdge(
          base_id, n, dir, nullptr,
          [&](PredicateId, NodeId m) {
            if (m < base_n_) out.push_back(m);
          },
          [&](std::string_view, const NodeKey& m) {
            out.push_back(LocalId(m));
          });
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
    KeepTopK(&scored, counts_, k, base_n_,
             [&](uint32_t id) { return NameOf(id); });
    return scored;
  }

  graph::NodeKind KindOf(uint32_t id) const {
    return id < base_n_ ? view_.base.NodeKindOf(id)
                        : extra_[id - base_n_].first;
  }
  std::string_view NameOf(uint32_t id) const {
    return id < base_n_ ? view_.base.NodeName(id)
                        : extra_[id - base_n_].second;
  }
  /// One count per local id: size() == base node count + extra ids.
  const std::vector<uint32_t>& counts() const { return counts_; }

 private:
  const View& view_;
  const uint32_t base_n_;
  std::map<NodeKey, uint32_t> extra_ids_;
  std::vector<NodeKey> extra_;  // extra_[id - base_n_]
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
  const NodeKey s{q.node_kind, q.node};
  const OnePredicate only = view.Only(q.predicate);
  view.ForEachEdge(
      view.BaseId(s), s, Direction::kOut, &only,
      [&](PredicateId, NodeId o) {
        rows.push_back(
            RenderNodeName(view.base.NodeName(o), view.base.NodeKindOf(o)));
      },
      [&](std::string_view, const NodeKey& o) {
        rows.push_back(RenderNodeName(o.second, o.first));
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename View>
QueryResult ReadNeighborhood(const View& view, const Query& q) {
  const KgSnapshot& base = view.base;
  const NodeKey c{q.node_kind, q.node};
  const NodeId id = view.BaseId(c);
  QueryResult rows;
  rows.reserve(base.OutDegree(id) + base.InDegree(id));
  // In-rows first: "in" sorts before "out", and base rows come in
  // (predicate id, node id) order, which is byte order unless kinds mix,
  // a name byte sorts below '\t' or an overlay adds rows; only then does
  // it sort.
  for (const Direction dir : {Direction::kIn, Direction::kOut}) {
    const std::string_view tag = dir == Direction::kOut ? "out" : "in";
    view.ForEachEdge(
        id, c, dir, nullptr,
        [&](PredicateId p, NodeId m) {
          rows.push_back(RenderNeighborhoodRow(tag, base.PredicateName(p),
                                               base.NodeName(m),
                                               base.NodeKindOf(m)));
        },
        [&](std::string_view p, const NodeKey& m) {
          rows.push_back(RenderNeighborhoodRow(tag, p, m.second, m.first));
        });
  }
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  return rows;
}

template <typename View>
QueryResult ReadAttributeByType(const View& view, const Query& q) {
  const KgSnapshot& base = view.base;
  const OnePredicate type_only = view.Only(q.type_predicate);
  const OnePredicate attr_only = view.Only(q.predicate);
  QueryResult rows;
  const auto member_rows = [&](NodeId id, const NodeKey& m) {
    view.ForEachEdge(
        id, m, Direction::kOut, &attr_only,
        [&](PredicateId, NodeId o) {
          rows.push_back(RenderAttributeRow(m.second, m.first,
                                            base.NodeName(o),
                                            base.NodeKindOf(o)));
        },
        [&](std::string_view, const NodeKey& o) {
          rows.push_back(RenderAttributeRow(m.second, m.first, o.second,
                                            o.first));
        });
  };
  // The members are the class's in-edges under the type predicate. One an
  // overlay adds may still be a base node, with base attribute edges.
  const NodeKey cls{graph::NodeKind::kClass, q.type_name};
  view.ForEachEdge(
      view.BaseId(cls), cls, Direction::kIn, &type_only,
      [&](PredicateId, NodeId s) {
        member_rows(s, NodeKey{base.NodeKindOf(s), base.NodeName(s)});
      },
      [&](std::string_view, const NodeKey& m) {
        member_rows(view.BaseId(m), m);
      });
  // Base rows come in (subject id, object id) order. That is byte order
  // unless kinds mix (ids order E < T < C, tags C < E < T), one member's
  // name is a prefix of another's followed by a byte below '\t', or an
  // overlay adds rows; only then does it sort.
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
