#include "store/versioned_store.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "obs/introspect.h"

namespace kg::store {

namespace {

/// An owned (kind, name) node address: what the commit path's adjacency
/// walk (AdjacentNodes) collects, since the generation tags it feeds are
/// keyed by name.
using NodeRef = std::pair<graph::NodeKind, std::string>;

std::string Render(const serve::NodeKey& n) {
  return serve::RenderNodeName(n.second, n.first);
}

NodeRef RefOf(const serve::KgSnapshot& base, serve::NodeId id) {
  return NodeRef{base.NodeKindOf(id), std::string(base.NodeName(id))};
}

/// (s, p, o) base ids of `t`, or nullopt when the base lacks the triple.
std::optional<std::array<uint32_t, 3>> FindBaseTriple(
    const serve::KgSnapshot& base, const TripleView& t) {
  const serve::NodeId s = base.FindNode(t.subject, t.subject_kind);
  const serve::PredicateId p = base.FindPredicate(t.predicate);
  const serve::NodeId o = base.FindNode(t.object, t.object_kind);
  if (s == serve::kInvalidNode || p == serve::kInvalidNode ||
      o == serve::kInvalidNode || !base.HasTriple(s, p, o)) {
    return std::nullopt;
  }
  return std::array<uint32_t, 3>{s, p, o};
}

/// A run entry's sort key: (walked node, predicate, far node).
std::tuple<uint32_t, uint32_t, uint32_t> RunKey(const OverlayEdge& e) {
  return {e.node, e.predicate, e.far};
}

/// One overlay triple in id space: its out-run entry, and whether the runs
/// keep it at all (an upsert the base already holds, or a retraction of a
/// triple it lacks, changes nothing).
struct RunChange {
  OverlayEdge edge;
  bool kept = false;
};

/// `run` with `changes` applied: a changed triple's old entry goes, and
/// its new one comes in when kept. Duplicates in `changes` name one
/// triple with one verdict (the index's final state), so any one stands.
std::vector<OverlayEdge> ApplyToRun(const std::vector<OverlayEdge>& run,
                                    std::vector<RunChange> changes) {
  std::sort(changes.begin(), changes.end(),
            [](const RunChange& a, const RunChange& b) {
              return RunKey(a.edge) < RunKey(b.edge);
            });
  changes.erase(std::unique(changes.begin(), changes.end(),
                            [](const RunChange& a, const RunChange& b) {
                              return RunKey(a.edge) == RunKey(b.edge);
                            }),
                changes.end());
  std::vector<OverlayEdge> out;
  out.reserve(run.size() + changes.size());
  auto c = changes.begin();
  for (const OverlayEdge& e : run) {
    for (; c != changes.end() && RunKey(c->edge) < RunKey(e); ++c) {
      if (c->kept) out.push_back(c->edge);
    }
    if (c != changes.end() && RunKey(c->edge) == RunKey(e)) {
      if (c->kept) out.push_back(c->edge);
      ++c;
      continue;
    }
    out.push_back(e);
  }
  for (; c != changes.end(); ++c) {
    if (c->kept) out.push_back(c->edge);
  }
  return out;
}

/// `prev`, runs in the same id space, with `changes` (out-run order)
/// applied to both directions.
OverlayRuns ExtendOverlay(const OverlayRuns& prev,
                          std::vector<RunChange> changes) {
  std::vector<RunChange> in_changes;
  in_changes.reserve(changes.size());
  for (const RunChange& c : changes) {
    in_changes.push_back(RunChange{
        OverlayEdge{c.edge.far, c.edge.predicate, c.edge.node, c.edge.added},
        c.kept});
  }
  return OverlayRuns{ApplyToRun(prev.out, std::move(changes)),
                     ApplyToRun(prev.in, std::move(in_changes))};
}

/// `n`'s id over `base` and the overlay `names` past it, kInvalidNode when
/// neither names it.
serve::NodeId FindNodeIn(const serve::KgSnapshot& base,
                         const OverlayNames& names, const serve::NodeKey& n) {
  if (const serve::NodeId id = base.FindNode(n.second, n.first);
      id != serve::kInvalidNode) {
    return id;
  }
  const uint32_t i = names.FindNode(n);
  return i == serve::kInvalidNode
             ? serve::kInvalidNode
             : static_cast<serve::NodeId>(base.num_nodes() + i);
}

serve::PredicateId FindPredicateIn(const serve::KgSnapshot& base,
                                   const OverlayNames& names,
                                   std::string_view name) {
  if (const serve::PredicateId id = base.FindPredicate(name);
      id != serve::kInvalidNode) {
    return id;
  }
  const uint32_t i = names.FindPredicate(name);
  return i == serve::kInvalidNode
             ? serve::kInvalidNode
             : static_cast<serve::PredicateId>(base.num_predicates() + i);
}

/// The next epoch's overlay while a commit, a fold's install or WAL
/// recovery resolves triples into it: each triple's parts are looked up in
/// the base, then in the names so far, and an upsert gives the names
/// neither holds the next ids, appended to the lineage's `storage`. The
/// names are copied from `prev` on the first name added, so a commit that
/// adds none shares its predecessor's.
class OverlayDraft {
 public:
  OverlayDraft(const serve::KgSnapshot& base,
               std::shared_ptr<const OverlayNames> prev,
               std::deque<std::string>* storage)
      : base_(base),
        base_n_(static_cast<uint32_t>(base.num_nodes())),
        base_p_(static_cast<uint32_t>(base.num_predicates())),
        prev_(std::move(prev)),
        storage_(storage) {}

  /// Records the index's verdict `state` on `t` as a run change.
  void Resolve(const TripleView& t, MemDelta::State state) {
    const bool upserted = state == MemDelta::State::kUpserted;
    // Only an upsert names what nothing holds yet. A part still unnamed
    // after these lookups means a retraction no run entry can hold,
    // which changes nothing.
    const auto node = [&](const serve::NodeKey& n) {
      const serve::NodeId id = FindNode(n);
      return id != serve::kInvalidNode || !upserted ? id : AddNode(n);
    };
    const serve::NodeId s = node({t.subject_kind, t.subject});
    serve::PredicateId p = FindPredicate(t.predicate);
    if (p == serve::kInvalidNode && upserted) p = AddPredicate(t.predicate);
    const serve::NodeId o = node({t.object_kind, t.object});
    if (s == serve::kInvalidNode || p == serve::kInvalidNode ||
        o == serve::kInvalidNode) {
      return;
    }
    const bool in_base = s < base_n_ && p < base_p_ && o < base_n_ &&
                         base_.HasTriple(s, p, o);
    changes_.push_back(
        RunChange{OverlayEdge{s, p, o, upserted}, upserted != in_base});
  }

  std::vector<RunChange> TakeChanges() { return std::move(changes_); }

  /// The names after every Resolve, with the added ones merged into the
  /// lookup index.
  std::shared_ptr<const OverlayNames> TakeNames() {
    if (next_ == nullptr) return std::move(prev_);
    MergeOrder(new_nodes_, next_->nodes, &next_->node_order);
    MergeOrder(new_predicates_, next_->predicates, &next_->predicate_order);
    return std::move(next_);
  }

 private:
  serve::NodeId FindNode(const serve::NodeKey& n) const {
    if (const serve::NodeId id = FindNodeIn(base_, *prev_, n);
        id != serve::kInvalidNode) {
      return id;
    }
    const auto it = new_nodes_.find(n);
    return it == new_nodes_.end() ? serve::kInvalidNode : base_n_ + it->second;
  }

  serve::PredicateId FindPredicate(std::string_view name) const {
    if (const serve::PredicateId id = FindPredicateIn(base_, *prev_, name);
        id != serve::kInvalidNode) {
      return id;
    }
    const auto it = new_predicates_.find(name);
    return it == new_predicates_.end() ? serve::kInvalidNode
                                       : base_p_ + it->second;
  }

  OverlayNames& Next() {
    if (next_ == nullptr) next_ = std::make_shared<OverlayNames>(*prev_);
    return *next_;
  }

  serve::NodeId AddNode(const serve::NodeKey& n) {
    const std::string_view name = storage_->emplace_back(n.second);
    OverlayNames& next = Next();
    const auto i = static_cast<uint32_t>(next.nodes.size());
    next.nodes.emplace_back(n.first, name);
    new_nodes_.emplace(next.nodes.back(), i);
    return base_n_ + i;
  }

  serve::PredicateId AddPredicate(std::string_view p) {
    const std::string_view name = storage_->emplace_back(p);
    OverlayNames& next = Next();
    const auto i = static_cast<uint32_t>(next.predicates.size());
    next.predicates.push_back(name);
    new_predicates_.emplace(name, i);
    return base_p_ + i;
  }

  /// Merges `added` (key -> index, in key order) into `order`, the
  /// indices of `keys` sorted by key.
  template <typename Key>
  static void MergeOrder(const std::map<Key, uint32_t>& added,
                         const std::vector<Key>& keys,
                         std::vector<uint32_t>* order) {
    if (added.empty()) return;
    std::vector<uint32_t> fresh;
    fresh.reserve(added.size());
    for (const auto& [key, i] : added) fresh.push_back(i);
    std::vector<uint32_t> merged;
    merged.reserve(order->size() + fresh.size());
    std::merge(order->begin(), order->end(), fresh.begin(), fresh.end(),
               std::back_inserter(merged),
               [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    *order = std::move(merged);
  }

  const serve::KgSnapshot& base_;
  const uint32_t base_n_;
  const uint32_t base_p_;
  std::shared_ptr<const OverlayNames> prev_;
  std::deque<std::string>* storage_;
  std::shared_ptr<OverlayNames> next_;  // null until a name is added
  std::map<serve::NodeKey, uint32_t> new_nodes_;
  std::map<std::string_view, uint32_t> new_predicates_;
  std::vector<RunChange> changes_;
};

/// An empty name table over a new lineage store.
std::shared_ptr<const OverlayNames> NewLineage(
    const std::shared_ptr<std::deque<std::string>>& storage) {
  auto names = std::make_shared<OverlayNames>();
  names->storage = storage;
  return names;
}

/// The runs and names of `delta` resolved from scratch against `base`, in
/// a new lineage over `storage`: what a fold's install publishes, since a
/// fold renumbers the base, and what WAL recovery folds.
std::pair<OverlayRuns, std::shared_ptr<const OverlayNames>> ResolveOverlay(
    const serve::KgSnapshot& base, const MemDelta& delta,
    const std::shared_ptr<std::deque<std::string>>& storage) {
  OverlayDraft draft(base, NewLineage(storage), storage.get());
  delta.ForEach([&](const TripleName& t, const MemDelta::Entry& e) {
    draft.Resolve(t, e.state);
  });
  return {ExtendOverlay({}, draft.TakeChanges()), draft.TakeNames()};
}

/// Sorted-unique nodes adjacent to `n` over live edges of `base` ⊕
/// `delta`, either direction (multiple predicates between a pair collapse
/// to one adjacency). The commit path's walk (BumpsOf), by name over the
/// writer's index and kept apart from the reads' id walk on purpose:
/// moving commits onto the id walk halves their overlay merge, which
/// shifts the ingest/read balance `ingest_serve` measures (E29).
std::vector<NodeRef> AdjacentNodes(const serve::KgSnapshot& base,
                                   const MemDelta& delta, const NodeRef& n) {
  const auto retracted = [&](const TripleView& t) {
    return delta.Lookup(t) == MemDelta::State::kRetracted;
  };
  std::vector<NodeRef> out;
  const serve::NodeId n_id = base.FindNode(n.second, n.first);
  const bool touches_s = delta.TouchesSubject(n.first, n.second);
  const bool touches_o = delta.TouchesObject(n.first, n.second);
  if (n_id != serve::kInvalidNode) {
    for (const serve::KgSnapshot::Edge& e : base.OutEdges(n_id)) {
      if (touches_s &&
          retracted(TripleView(n.first, n.second, base.PredicateName(e.first),
                               base.NodeKindOf(e.second),
                               base.NodeName(e.second)))) {
        continue;
      }
      out.push_back(RefOf(base, e.second));
    }
    for (const serve::KgSnapshot::Edge& e : base.InEdges(n_id)) {
      if (touches_o &&
          retracted(TripleView(base.NodeKindOf(e.second),
                               base.NodeName(e.second),
                               base.PredicateName(e.first), n.first,
                               n.second))) {
        continue;
      }
      out.push_back(RefOf(base, e.second));
    }
  }
  if (touches_s) {
    delta.ForEachBySubject(
        n.first, n.second, [&](const TripleName& t, const MemDelta::Entry& e) {
          if (e.state != MemDelta::State::kUpserted) return;
          if (FindBaseTriple(base, t)) return;
          out.emplace_back(t.object_kind, t.object);
        });
  }
  if (touches_o) {
    delta.ForEachByObject(
        n.first, n.second, [&](const TripleName& t, const MemDelta::Entry& e) {
          if (e.state != MemDelta::State::kUpserted) return;
          if (FindBaseTriple(base, t)) return;
          out.emplace_back(t.subject_kind, t.subject);
        });
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Sorted, distinct names of the entities at the far end of `n`'s
/// out-edges in the view: routed top-k's out-hop pairs from n, which only
/// n's own shard holds.
std::vector<std::string> OutEntities(const StoreEpoch& view,
                                     const serve::NodeKey& n) {
  std::vector<serve::NodeId> ids;
  view.ForEachEdge(view.FindNode(n), serve::Direction::kOut, std::nullopt,
                   [&](serve::PredicateId, serve::NodeId m) {
                     if (view.NodeKindOf(m) == graph::NodeKind::kEntity) {
                       ids.push_back(m);
                     }
                   });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (const serve::NodeId m : ids) names.emplace_back(view.NodeName(m));
  // Overlay ids come in no name order.
  std::sort(names.begin(), names.end());
  return names;
}

/// `read(view, &tagged)` over the store's current epoch, schema-gated and
/// tagged with the watermark read before the pin, as in TryExecuteTagged.
template <typename Tagged, typename ReadInto>
Result<Tagged> ReadTagged(const VersionedKgStore& store,
                          const ReadInto& read) {
  Tagged tagged;
  tagged.epoch = store.applied_watermark();
  const std::shared_ptr<const StoreEpoch> epoch = store.PinEpoch();
  KG_RETURN_IF_ERROR(serve::CheckSchema(*epoch->base));
  read(*epoch, &tagged);
  return tagged;
}

/// The generation counters a commit bumps (VersionedKgStore's cache
/// rule): the predicates it writes and the top-k centers it can reach.
struct GenerationBumps {
  std::set<std::string> predicates;
  std::set<std::string> nodes;
};

/// The bumps of committing `mutations`, read off `base` ⊕ `delta`, the
/// state the commit publishes.
GenerationBumps BumpsOf(const serve::KgSnapshot& base, const MemDelta& delta,
                        std::span<const Mutation> mutations) {
  // Top-k(x) depends on edges incident to x (first hop) and to x's
  // neighbors (second hop). A mutation of edge (s, o) therefore affects
  // {s, o}, plus N(s) — but only when o is an entity (for x in N(s) the
  // edge contributes the candidate o via the path x–s–o, and candidates
  // are entity-filtered) — and symmetrically N(o) only when s is an
  // entity. Adjacency is read from the post-commit state; within a batch
  // that post-state union still covers every intermediate state, because
  // a neighbor another batch entry disconnected appears in that entry's
  // own {s, o} set.
  GenerationBumps bumps;
  for (const Mutation& m : mutations) {
    bumps.predicates.insert(m.predicate);
    const NodeRef s{m.subject_kind, m.subject};
    const NodeRef o{m.object_kind, m.object};
    bumps.nodes.insert(Render(s));
    bumps.nodes.insert(Render(o));
    if (o.first == graph::NodeKind::kEntity) {
      for (const NodeRef& n : AdjacentNodes(base, delta, s)) {
        bumps.nodes.insert(Render(n));
      }
    }
    if (s.first == graph::NodeKind::kEntity) {
      for (const NodeRef& n : AdjacentNodes(base, delta, o)) {
        bumps.nodes.insert(Render(n));
      }
    }
  }
  return bumps;
}

/// Numbers a fold's vocabulary in key order. Ids below `base_count` are
/// base ids, already in key order; `order` lists the overlay's,
/// base_count + order[i], in key order. An id `remap` marks kInvalidNode
/// is compiled out; the rest get dense new ids, written into `remap`, and
/// `add(id)` is called for each in new-id order.
template <typename KeyOf, typename Add>
void Renumber(uint32_t base_count, std::span<const uint32_t> order,
              const KeyOf& key_of, std::vector<uint32_t>* remap,
              const Add& add) {
  uint32_t next = 0;
  const auto number = [&](uint32_t id) {
    if ((*remap)[id] == serve::kInvalidNode) return;
    add(id);
    (*remap)[id] = next++;
  };
  auto it = order.begin();
  for (uint32_t b = 0; b <= base_count; ++b) {
    for (; it != order.end() &&
           (b == base_count || key_of(base_count + *it) < key_of(b));
         ++it) {
      number(base_count + *it);
    }
    if (b < base_count) number(b);
  }
}

/// The store's one fold, used by compaction and WAL recovery: streams
/// base ⊕ runs (base triples minus retractions, plus upserts) through
/// SnapshotBuilder in the merged vocabulary's ids, reading the runs and
/// the name table only. Bit-identical to KgSnapshot::Compile of the
/// merged graph.
serve::KgSnapshot FoldOverlay(const serve::KgSnapshot& base,
                              const OverlayNames& names,
                              const OverlayRuns& runs) {
  if (runs.out.empty()) return base;
  using Ids = std::array<uint32_t, 3>;
  const auto base_n = static_cast<uint32_t>(base.num_nodes());
  const auto base_p = static_cast<uint32_t>(base.num_predicates());

  // 1. The out-run's retractions (base ids, already sorted) and upserts.
  std::vector<Ids> removed;
  std::vector<Ids> added;
  for (const OverlayEdge& e : runs.out) {
    (e.added ? added : removed).push_back({e.node, e.predicate, e.far});
  }

  // 2. Degree arithmetic: a base node or predicate is compiled out
  //    (kInvalidNode) once the runs retract as many of its triples as the
  //    base holds, unless an upsert names it. An overlay name joins the
  //    vocabulary only when an upsert names it.
  std::vector<uint32_t> node_remap(base_n + names.nodes.size(), 0);
  std::vector<uint32_t> pred_remap(base_p + names.predicates.size(), 0);
  std::fill(node_remap.begin() + base_n, node_remap.end(),
            serve::kInvalidNode);
  std::fill(pred_remap.begin() + base_p, pred_remap.end(),
            serve::kInvalidNode);
  std::map<uint32_t, uint64_t> node_cut;
  std::map<uint32_t, uint64_t> pred_cut;
  const auto cut_node = [&](uint32_t b) {
    if (++node_cut[b] == base.OutDegree(b) + base.InDegree(b)) {
      node_remap[b] = serve::kInvalidNode;
    }
  };
  for (const Ids& t : removed) {
    cut_node(t[0]);
    cut_node(t[2]);
    if (++pred_cut[t[1]] == base.PredicateTripleCount(t[1])) {
      pred_remap[t[1]] = serve::kInvalidNode;
    }
  }
  for (const Ids& t : added) {
    node_remap[t[0]] = 0;
    pred_remap[t[1]] = 0;
    node_remap[t[2]] = 0;
  }

  // 3. The merged vocabulary, and the upserts in its ids (overlay ids
  //    follow no name order, so they sort again).
  serve::SnapshotBuilder builder;
  std::vector<uint32_t> row_source;  // new node id -> base id
  const auto node_key = [&](uint32_t id) {
    return id < base_n ? serve::NodeKey{base.NodeKindOf(id), base.NodeName(id)}
                       : names.nodes[id - base_n];
  };
  const auto pred_key = [&](uint32_t id) {
    return id < base_p ? base.PredicateName(id) : names.predicates[id - base_p];
  };
  Renumber(base_n, names.node_order, node_key, &node_remap, [&](uint32_t id) {
    const serve::NodeKey k = node_key(id);
    builder.AddNode(k.second, k.first);
    row_source.push_back(id < base_n ? id : serve::kInvalidNode);
  });
  Renumber(base_p, names.predicate_order, pred_key, &pred_remap,
           [&](uint32_t id) { builder.AddPredicate(pred_key(id)); });
  for (Ids& t : added) {
    t = {node_remap[t[0]], pred_remap[t[1]], node_remap[t[2]]};
  }
  std::sort(added.begin(), added.end());

  // 4. Per subject in new-id order: its base row, remapped (monotone, so
  //    still sorted) and minus retractions, merged with its upserts.
  //    Decoded edge ids index the remap tables only when in range.
  const auto remap = [](const std::vector<uint32_t>& table, uint32_t id) {
    return id < table.size() ? table[id] : serve::kInvalidNode;
  };
  auto built = builder.Build([&](const serve::SnapshotBuilder::TripleSink&
                                     sink) {
    auto cut = removed.begin();
    auto add = added.begin();
    for (uint32_t s = 0; s < row_source.size(); ++s) {
      for (const serve::KgSnapshot::Edge& e : base.OutEdges(row_source[s])) {
        const Ids key{row_source[s], e.first, e.second};
        while (cut != removed.end() && *cut < key) ++cut;
        if (cut != removed.end() && *cut == key) continue;
        const Ids out{s, remap(pred_remap, e.first),
                      remap(node_remap, e.second)};
        for (; add != added.end() && *add < out; ++add) {
          sink((*add)[0], (*add)[1], (*add)[2]);
        }
        sink(out[0], out[1], out[2]);
      }
      for (; add != added.end() && (*add)[0] == s; ++add) {
        sink((*add)[0], (*add)[1], (*add)[2]);
      }
    }
  });
  KG_CHECK_OK(built.status());  // ids and order are correct by construction
  return *std::move(built);
}

}  // namespace

uint32_t OverlayNames::FindNode(const serve::NodeKey& n) const {
  const auto it = std::lower_bound(
      node_order.begin(), node_order.end(), n,
      [&](uint32_t i, const serve::NodeKey& key) { return nodes[i] < key; });
  return it != node_order.end() && nodes[*it] == n ? *it : serve::kInvalidNode;
}

uint32_t OverlayNames::FindPredicate(std::string_view name) const {
  const auto it = std::lower_bound(
      predicate_order.begin(), predicate_order.end(), name,
      [&](uint32_t i, std::string_view key) { return predicates[i] < key; });
  return it != predicate_order.end() && predicates[*it] == name
             ? *it
             : serve::kInvalidNode;
}

serve::NodeId StoreEpoch::FindNode(const serve::NodeKey& n) const {
  return FindNodeIn(*base, *names, n);
}

serve::PredicateId StoreEpoch::FindPredicate(std::string_view name) const {
  return FindPredicateIn(*base, *names, name);
}

Result<std::unique_ptr<VersionedKgStore>> VersionedKgStore::Open(
    const graph::KnowledgeGraph& base, StoreOptions options) {
  std::unique_ptr<VersionedKgStore> store(new VersionedKgStore());
  store->options_ = options;
  if (obs::MetricsRegistry* reg = options.registry) {
    store->metrics_.applied_mutations =
        &reg->GetCounter("store.applied_mutations");
    store->metrics_.wal_appended =
        &reg->GetCounter("store.wal.appended_records");
    store->metrics_.compactions = &reg->GetCounter("store.compactions");
    store->metrics_.folded = &reg->GetCounter("store.compaction.folded");
    store->metrics_.epoch_version = &reg->GetGauge("store.epoch.version");
    store->metrics_.delta_size = &reg->GetGauge("store.delta.size");
    store->metrics_.wal_replayed =
        &reg->GetGauge("store.wal.replayed_records");
    store->metrics_.compaction_last_us =
        &reg->GetGauge("store.compaction.last_us");
    store->metrics_.stage_wal_append =
        &obs::StageHistogram(*reg, obs::Stage::kWalAppend);
    store->metrics_.stage_overlay_merge =
        &obs::StageHistogram(*reg, obs::Stage::kOverlayMerge);
    if (options.time_stages) {
      for (size_t k = 0; k < serve::kNumQueryKinds; ++k) {
        store->metrics_.stage_cache_probe[k] = &obs::StageHistogram(
            *reg, obs::Stage::kCacheProbe,
            serve::QueryKindName(static_cast<serve::QueryKind>(k)));
      }
    }
  }
  MemDelta recovered;
  if (!options.wal_path.empty()) {
    WalReplay replay;
    KG_ASSIGN_OR_RETURN(Wal wal, Wal::Open(options.wal_path, &replay));
    store->wal_.emplace(std::move(wal));
    // Recovered mutations consume sequence numbers exactly as the live
    // appends that wrote them did, so a reopened store is bit-identical
    // to one that never crashed.
    for (const std::vector<Mutation>& commit : replay.commits) {
      for (const Mutation& m : commit) recovered.Apply(m, store->next_seq_++);
    }
    if (store->metrics_.wal_replayed != nullptr) {
      store->metrics_.wal_replayed->Set(
          static_cast<int64_t>(replay.commits.size()));
    }
  }
  if (options.cache_capacity > 0) {
    store->cache_ =
        std::make_unique<serve::ShardedLruCache>(options.cache_capacity);
  }
  // The replayed log is resolved and folded into the first base through
  // the path compaction takes, so a reopened store starts a lineage with
  // an empty overlay.
  serve::KgSnapshot compiled = serve::KgSnapshot::Compile(base);
  if (!recovered.empty()) {
    const auto [runs, names] = ResolveOverlay(
        compiled, recovered, std::make_shared<std::deque<std::string>>());
    compiled = FoldOverlay(compiled, *names, runs);
  }
  store->names_ = std::make_shared<std::deque<std::string>>();
  auto epoch = std::make_shared<StoreEpoch>();
  epoch->version = 0;
  epoch->base_seq = epoch->seq = store->next_seq_ - 1;
  epoch->base = std::make_shared<const serve::KgSnapshot>(std::move(compiled));
  epoch->names = NewLineage(store->names_);
  store->current_ = std::move(epoch);
  return store;
}

void VersionedKgStore::PublishEpoch(std::shared_ptr<const StoreEpoch> epoch,
                                    std::span<const Mutation> mutations) {
  // The walk reads the new base and the writer's index, which no reader
  // can see, so it runs before the lock.
  const GenerationBumps bumps =
      cache_ ? BumpsOf(*epoch->base, delta_, mutations) : GenerationBumps{};
  // Declared before the lock, so it is destroyed after the unlock: when
  // no reader pins the retired epoch, freeing it (its runs, and after a
  // fold the old base and lineage) must not hold every reader's pin.
  std::shared_ptr<const StoreEpoch> retired;
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  retired = std::exchange(current_, std::move(epoch));
  // Bumped with the swap: no reader can take the new epoch with an old
  // tag (and hit an older answer), or an old epoch with a new tag (and
  // park an older answer under it).
  for (const std::string& p : bumps.predicates) ++predicate_gen_[p];
  for (const std::string& n : bumps.nodes) ++node_gen_[n];
}

Status VersionedKgStore::Apply(const Mutation& mutation) {
  return ApplyBatch(std::span<const Mutation>(&mutation, 1));
}

Status VersionedKgStore::ApplyBatch(std::span<const Mutation> mutations) {
  if (mutations.empty()) return Status::OK();
  std::lock_guard<std::mutex> writer(writer_mu_);
  const auto t_wal = std::chrono::steady_clock::now();
  if (wal_) {
    // Log before apply: if the append fails, no state changed and the
    // caller may retry; if we crash after it, replay redoes the batch.
    KG_RETURN_IF_ERROR(wal_->AppendBatch(mutations));
  }
  const auto t_merge = std::chrono::steady_clock::now();
  if (metrics_.stage_wal_append != nullptr && wal_) {
    metrics_.stage_wal_append->Observe(
        std::chrono::duration<double, std::micro>(t_merge - t_wal).count());
  }
  // Holding writer_mu_ makes the unlocked read of current_ safe: only
  // writers store to it, and they all serialize here.
  const StoreEpoch& prev = *current_;
  for (const Mutation& m : mutations) delta_.Apply(m, next_seq_++);
  // The base is unchanged, so the previous runs and names stay valid; the
  // batch's triples are resolved at their final state and replace their
  // entries.
  OverlayDraft draft(*prev.base, prev.names, names_.get());
  for (const Mutation& m : mutations) {
    const TripleView t = TripleView::Of(m);
    draft.Resolve(t, delta_.Lookup(t));
  }
  auto epoch = std::make_shared<StoreEpoch>();
  epoch->version = prev.version + 1;
  epoch->base_seq = prev.base_seq;
  epoch->seq = next_seq_ - 1;
  epoch->base = prev.base;
  epoch->names = draft.TakeNames();
  epoch->overlay = ExtendOverlay(prev.overlay, draft.TakeChanges());
  epoch->delta_size = delta_.size();
  const uint64_t published_version = epoch->version;
  const size_t published_delta = epoch->delta_size;
  PublishEpoch(std::move(epoch), mutations);
  if (metrics_.stage_overlay_merge != nullptr) {
    metrics_.stage_overlay_merge->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t_merge)
            .count());
  }
  if (metrics_.applied_mutations != nullptr) {
    metrics_.applied_mutations->Inc(mutations.size());
    if (wal_) metrics_.wal_appended->Inc();
    metrics_.epoch_version->Set(static_cast<int64_t>(published_version));
    metrics_.delta_size->Set(static_cast<int64_t>(published_delta));
  }
  return Status::OK();
}

std::string VersionedKgStore::GenTag(const serve::Query& q) const {
  const auto gen = [](const std::unordered_map<std::string, uint64_t>& map,
                      const std::string& key) -> uint64_t {
    const auto it = map.find(key);
    return it == map.end() ? 0 : it->second;
  };
  switch (q.kind) {
    case serve::QueryKind::kAttributeByType:
      // The answer is members(type_predicate) x objects(predicate): only
      // triples carrying one of those two predicates can change it.
      return "#g" + std::to_string(gen(predicate_gen_, q.predicate)) + '.' +
             std::to_string(gen(predicate_gen_, q.type_predicate));
    case serve::QueryKind::kTopKRelated:
      return "#g" + std::to_string(gen(
                        node_gen_, serve::RenderNodeName(q.node, q.node_kind)));
    default:
      return {};
  }
}

std::shared_ptr<const StoreEpoch> VersionedKgStore::PinEpoch() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return current_;
}

serve::QueryResult VersionedKgStore::ExecuteAt(
    const StoreEpoch& epoch, const serve::Query& query) const {
  return serve::Read(epoch, query);
}

Result<serve::QueryResult> VersionedKgStore::TryExecute(
    const serve::Query& query) const {
  return Read(query, /*check_schema=*/true);
}

Result<serve::EpochTaggedResult> VersionedKgStore::TryExecuteTagged(
    const serve::Query& query) const {
  serve::EpochTaggedResult tagged;
  // Watermark before rows: the content the rows are computed from can
  // only be at or past the tag, never behind it.
  tagged.epoch = applied_watermark();
  KG_ASSIGN_OR_RETURN(tagged.rows, TryExecute(query));
  return tagged;
}

Result<EpochTaggedAdjacency> VersionedKgStore::TryOutEntitiesTagged(
    std::span<const serve::NodeKey> nodes) const {
  return ReadTagged<EpochTaggedAdjacency>(
      *this, [&](const StoreEpoch& view, EpochTaggedAdjacency* tagged) {
        tagged->entities.reserve(nodes.size());
        for (const serve::NodeKey& n : nodes) {
          tagged->entities.push_back(OutEntities(view, n));
        }
      });
}

Result<EpochTaggedScores> VersionedKgStore::TryRingScoresTagged(
    const serve::NodeKey& center, std::span<const serve::NodeKey> ring,
    std::span<const serve::RingHop> hops, size_t k) const {
  return ReadTagged<EpochTaggedScores>(
      *this, [&](const StoreEpoch& view, EpochTaggedScores* tagged) {
        tagged->best = serve::ReadRingScores(view, center, ring, hops, k);
      });
}

serve::QueryResult VersionedKgStore::Execute(const serve::Query& query) const {
  return Read(query, /*check_schema=*/false).value();
}

Result<serve::QueryResult> VersionedKgStore::Read(const serve::Query& query,
                                                  bool check_schema) const {
  const bool cached = cache_ != nullptr &&
                      query.kind != serve::QueryKind::kPointLookup &&
                      query.kind != serve::QueryKind::kNeighborhood;
  obs::Histogram* probe_hist =
      cached ? metrics_.stage_cache_probe[static_cast<size_t>(query.kind)]
             : nullptr;
  const auto t_probe = probe_hist != nullptr
                           ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  // The tag and the epoch come from one shared section, and a commit
  // publishes and bumps in one exclusive section, so the tag names the
  // pinned epoch's answer: an entry stored under it holds that answer,
  // and a miss stores the pinned epoch's answer under it. The tag rides
  // with the entry — not in the key — so every query owns exactly one
  // entry: a probe under a newer tag counts a miss, and the next Put
  // overwrites the retired generation in place instead of leaving it as
  // unreachable garbage that would crowd live entries out of the LRU.
  std::string tag;
  std::shared_ptr<const StoreEpoch> epoch;
  {
    std::shared_lock<std::shared_mutex> lock(epoch_mu_);
    if (cached) tag = GenTag(query);
    epoch = current_;
  }
  // The schema gate vouches for the epoch that answers, not a later one.
  if (check_schema) KG_RETURN_IF_ERROR(serve::CheckSchema(*epoch->base));
  if (!cached) return ExecuteAt(*epoch, query);
  const std::string key = query.CacheKey();
  serve::QueryResult cached_rows;
  const bool hit = cache_->Get(key, tag, &cached_rows);
  if (probe_hist != nullptr) {
    probe_hist->Observe(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t_probe)
                            .count());
  }
  if (hit) return cached_rows;
  serve::QueryResult result = ExecuteAt(*epoch, query);
  cache_->Put(key, tag, result);
  return result;
}

VersionedKgStore::CompactionStats VersionedKgStore::Compact() {
  std::optional<PendingFold> fold = PinAndFold();
  if (!fold) return CompactionStats{};  // another fold is running
  return InstallFold(std::move(*fold));
}

std::optional<VersionedKgStore::PendingFold> VersionedKgStore::PinAndFold() {
  if (compaction_in_flight_.exchange(true, std::memory_order_acq_rel)) {
    return std::nullopt;
  }
  PendingFold fold;
  fold.started = std::chrono::steady_clock::now();
  const std::shared_ptr<const StoreEpoch> pinned = PinEpoch();
  fold.seq = pinned->seq;
  // The slow part — folding the pinned overlay into a fresh CSR
  // snapshot — runs without any lock, so writers and readers proceed at
  // full speed underneath it.
  fold.base = std::make_shared<const serve::KgSnapshot>(
      FoldOverlay(*pinned->base, *pinned->names, pinned->overlay));
  return fold;
}

VersionedKgStore::CompactionStats VersionedKgStore::InstallFold(
    PendingFold fold) {
  CompactionStats stats;
  {
    std::lock_guard<std::mutex> writer(writer_mu_);
    // Entries at or before the fold line are the new base's; newer ones
    // keep shadowing it (their state already accounts for any base).
    const size_t before = delta_.size();
    delta_.TrimThrough(fold.seq);
    stats.folded = before - delta_.size();
    auto epoch = std::make_shared<StoreEpoch>();
    epoch->version = current_->version + 1;
    epoch->base_seq = fold.seq;
    epoch->seq = current_->seq;
    epoch->base = std::move(fold.base);
    // The fold renumbered the base: resolve the surviving entries anew,
    // in a new lineage.
    names_ = std::make_shared<std::deque<std::string>>();
    std::tie(epoch->overlay, epoch->names) =
        ResolveOverlay(*epoch->base, delta_, names_);
    epoch->delta_size = delta_.size();
    stats.version = epoch->version;
    stats.base_fingerprint = epoch->base->Fingerprint();
    const size_t remaining_delta = epoch->delta_size;
    // A fold changes no answer, so it bumps no tag.
    PublishEpoch(std::move(epoch));
    if (metrics_.delta_size != nullptr) {
      metrics_.epoch_version->Set(static_cast<int64_t>(stats.version));
      metrics_.delta_size->Set(static_cast<int64_t>(remaining_delta));
    }
  }
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - fold.started)
                      .count();
  stats.ran = true;
  if (metrics_.compactions != nullptr) {
    metrics_.compactions->Inc();
    metrics_.folded->Inc(stats.folded);
    metrics_.compaction_last_us->Set(
        static_cast<int64_t>(stats.seconds * 1e6));
  }
  compaction_in_flight_.store(false, std::memory_order_release);
  return stats;
}

bool VersionedKgStore::CompactInBackground(ThreadPool& pool) {
  if (compaction_in_flight_.load(std::memory_order_acquire)) return false;
  pool.Submit([this] { Compact(); });
  return true;
}

uint64_t VersionedKgStore::version() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return current_->version;
}

uint64_t VersionedKgStore::applied_mutations() const {
  std::lock_guard<std::mutex> writer(writer_mu_);
  return next_seq_ - 1;
}

size_t VersionedKgStore::delta_size() const { return PinEpoch()->delta_size; }

uint64_t VersionedKgStore::AuthoritativeFingerprint() const {
  const std::shared_ptr<const StoreEpoch> epoch = PinEpoch();
  const serve::KgSnapshot& base = *epoch->base;
  // The sum commutes, so the runs adjust the base's total: they add the
  // upserts the base lacks and subtract the base triples they retract.
  uint64_t fingerprint = 0;
  for (serve::NodeId s = 0; s < base.num_nodes(); ++s) {
    for (const serve::KgSnapshot::Edge& e : base.OutEdges(s)) {
      fingerprint += graph::TripleFingerprint(
          base.NodeName(s), base.NodeKindOf(s), base.PredicateName(e.first),
          base.NodeName(e.second), base.NodeKindOf(e.second));
    }
  }
  for (const OverlayEdge& e : epoch->overlay.out) {
    const uint64_t h = graph::TripleFingerprint(
        epoch->NodeName(e.node), epoch->NodeKindOf(e.node),
        epoch->PredicateName(e.predicate), epoch->NodeName(e.far),
        epoch->NodeKindOf(e.far));
    fingerprint += e.added ? h : -h;
  }
  return fingerprint;
}

}  // namespace kg::store
