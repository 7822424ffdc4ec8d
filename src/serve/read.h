#ifndef KGRAPH_SERVE_READ_H_
#define KGRAPH_SERVE_READ_H_

#include <algorithm>
#include <cstdint>
#include <map>
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

/// The walk in both directions under every predicate: every live
/// neighbour of `n` (base id `id`, or kInvalidNode), repeats included —
/// base ones to `on_base(id)`, overlay ones to `on_overlay(NodeKey)`.
template <typename View, typename OnBase, typename OnOverlay>
void ForEachAdjacent(const View& view, NodeId id, const NodeKey& n,
                     const OnBase& on_base, const OnOverlay& on_overlay) {
  for (const Direction dir : {Direction::kOut, Direction::kIn}) {
    view.ForEachEdge(
        id, n, dir, nullptr, [&](PredicateId, NodeId m) { on_base(m); },
        [&](std::string_view, const NodeKey& m) { on_overlay(m); });
  }
}

/// Top-k's rank-and-render step. `scored` lists each scored entity id
/// once, and `counts[id]` is its shared-neighbour count. Keeps the `k`
/// best by count, descending, then by name, ascending, and renders them
/// as top-k rows. Two ids below `by_id` compare as integers, since
/// snapshot ids number entities in name order; a pair with an id at or
/// past it compares `name_of(id)`, which also names the rendered rows.
template <typename NameOf>
QueryResult RankTopK(std::vector<NodeId> scored,
                     const std::vector<uint32_t>& counts, size_t k,
                     NodeId by_id, const NameOf& name_of) {
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
/// predicate; the center never appears in its own shelf. Counting runs in
/// id space: base nodes keep their snapshot ids, and nodes only an
/// overlay names get local ids past the base's, so names are read only
/// for tie-breaks that involve such a node and for the k rendered rows.
template <typename View>
QueryResult ReadTopKRelated(const View& view, const Query& q) {
  if (q.k == 0) return {};
  const KgSnapshot& base = view.base;
  const auto base_n = static_cast<uint32_t>(base.num_nodes());
  std::map<NodeKey, uint32_t> extra_ids;
  std::vector<NodeKey> extra;  // extra[id - base_n]
  // One count per local id: counts.size() == base_n + extra.size().
  std::vector<uint32_t> counts(base_n);
  const auto local_id = [&](const NodeKey& n) -> uint32_t {
    const NodeId id = view.BaseId(n);
    if (id != kInvalidNode) return id;
    const auto [it, inserted] = extra_ids.emplace(
        n, base_n + static_cast<uint32_t>(extra.size()));
    if (inserted) {
      extra.push_back(n);
      counts.push_back(0);
    }
    return it->second;
  };
  const auto kind_of = [&](uint32_t id) {
    return id < base_n ? base.NodeKindOf(id) : extra[id - base_n].first;
  };
  const auto name_of = [&](uint32_t id) -> std::string_view {
    return id < base_n ? base.NodeName(id) : extra[id - base_n].second;
  };
  // Sorted-unique local ids adjacent to `id`: several predicates between
  // one pair are one adjacency.
  const auto adjacency = [&](uint32_t id) {
    const NodeId base_id = id < base_n ? id : kInvalidNode;
    std::vector<uint32_t> out;
    out.reserve(base.OutDegree(base_id) + base.InDegree(base_id));
    ForEachAdjacent(
        view, base_id, NodeKey{kind_of(id), name_of(id)},
        [&](NodeId m) { out.push_back(m); },
        [&](const NodeKey& m) { out.push_back(local_id(m)); });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  // An id past the count array can only come from a corrupt base row,
  // and is skipped.
  const uint32_t center = local_id(NodeKey{q.node_kind, q.node});
  std::vector<uint32_t> scored;
  for (const uint32_t n : adjacency(center)) {
    if (n == center || n >= counts.size()) continue;
    for (const uint32_t m : adjacency(n)) {
      if (m == center || m >= counts.size()) continue;
      if (kind_of(m) != graph::NodeKind::kEntity) continue;
      if (counts[m]++ == 0) scored.push_back(m);
    }
  }
  return RankTopK(std::move(scored), counts, q.k, base_n, name_of);
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
