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
/// walk (MergedView::AdjacentNodes) collects, since snapshot ids are
/// epoch-local and the generation tags it feeds are keyed by name.
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

/// `a` (sorted, unique) ∪ `b`, sorted and unique: a commit's extension of
/// the epoch's gate, O(|a| + |b| log |b|).
std::vector<serve::NodeId> UnionSorted(const std::vector<serve::NodeId>& a,
                                       std::vector<serve::NodeId> b) {
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  std::vector<serve::NodeId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// A run entry's sort key: (walked node, predicate, far node).
std::tuple<uint32_t, uint32_t, uint32_t> RunKey(const OverlayEdge& e) {
  return {e.node, e.predicate, e.far};
}

/// One overlay triple whose three parts the base names, resolved: its
/// out-run entry, and whether the runs keep it at all (an upsert the base
/// already holds, or a retraction of a triple it lacks, changes nothing).
struct RunChange {
  OverlayEdge edge;
  bool kept = false;
};

/// Resolves the overlay's verdict `state` on `t` against `base`: a run
/// change when the base names all three parts, else the base endpoints
/// join the gate.
void Resolve(const serve::KgSnapshot& base, const TripleView& t,
             MemDelta::State state, std::vector<RunChange>* changes,
             std::vector<serve::NodeId>* gate) {
  const serve::NodeId s = base.FindNode(t.subject, t.subject_kind);
  const serve::PredicateId p = base.FindPredicate(t.predicate);
  const serve::NodeId o = base.FindNode(t.object, t.object_kind);
  if (s == serve::kInvalidNode || p == serve::kInvalidNode ||
      o == serve::kInvalidNode) {
    if (s != serve::kInvalidNode) gate->push_back(s);
    if (o != serve::kInvalidNode) gate->push_back(o);
    return;
  }
  const bool in_base = base.HasTriple(s, p, o);
  const bool added = state == MemDelta::State::kUpserted && !in_base;
  const bool retracted = state == MemDelta::State::kRetracted && in_base;
  changes->push_back(
      RunChange{OverlayEdge{s, p, o, added}, added || retracted});
}

/// `run` with `changes` applied: a changed triple's old entry goes, and
/// its new one comes in when kept. Duplicates in `changes` name one
/// triple with one verdict (the delta's final state), so any one stands.
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

/// `prev` — runs over the same base — with `changes` (out-run order) and
/// the `gate` additions applied to both directions.
OverlayRuns ExtendOverlay(const OverlayRuns& prev,
                          std::vector<RunChange> changes,
                          std::vector<serve::NodeId> gate) {
  std::vector<RunChange> in_changes;
  in_changes.reserve(changes.size());
  for (const RunChange& c : changes) {
    in_changes.push_back(RunChange{
        OverlayEdge{c.edge.far, c.edge.predicate, c.edge.node, c.edge.added},
        c.kept});
  }
  OverlayRuns next;
  next.out = ApplyToRun(prev.out, std::move(changes));
  next.in = ApplyToRun(prev.in, std::move(in_changes));
  next.gate = UnionSorted(prev.gate, std::move(gate));
  return next;
}

/// The runs of (base, delta) from scratch — what compaction publishes,
/// since a fold renumbers the base.
OverlayRuns ResolveOverlay(const serve::KgSnapshot& base,
                           const MemDelta& delta) {
  std::vector<RunChange> changes;
  std::vector<serve::NodeId> gate;
  delta.ForEach([&](const TripleName& t, const MemDelta::Entry& e) {
    Resolve(base, t, e.state, &changes, &gate);
  });
  return ExtendOverlay({}, std::move(changes), std::move(gate));
}

/// The endpoint of `t` across from the node a `dir` walk visits.
serve::NodeKey FarEnd(const TripleName& t, serve::Direction dir) {
  return dir == serve::Direction::kOut
             ? serve::NodeKey{t.object_kind, t.object}
             : serve::NodeKey{t.subject_kind, t.subject};
}

/// One epoch's worth of read state, as a serve/read.h view: a base
/// snapshot plus the overlay that shadows it. The query bodies read
/// through it (ExecuteAt), and store_property_test checks that they
/// answer exactly like QueryEngine over a from-scratch rebuild at the
/// same version.
struct MergedView {
  const serve::KgSnapshot& base;
  const MemDelta& delta;
  /// The epoch's overlay in base ids (StoreEpoch::overlay); borrowed, so
  /// a view costs nothing to set up.
  const OverlayRuns& overlay;

  explicit MergedView(const StoreEpoch& epoch)
      : base(*epoch.base), delta(*epoch.delta), overlay(epoch.overlay) {}

  bool Gated(serve::NodeId id) const {
    return std::binary_search(overlay.gate.begin(), overlay.gate.end(), id);
  }

  bool Retracted(const TripleView& t) const {
    return delta.Lookup(t) == MemDelta::State::kRetracted;
  }

  serve::NodeId BaseId(const serve::NodeKey& n) const {
    return base.FindNode(n.second, n.first);
  }

  /// `name` resolved against the base, once for every walk of one read.
  serve::OnePredicate Only(std::string_view name) const {
    return serve::OnePredicate{name, base.FindPredicate(name)};
  }

  /// Sorted-unique nodes adjacent to `n` over live merged edges, either
  /// direction (multiple predicates between a pair collapse to one
  /// adjacency). The commit path's walk (BumpsOf), kept apart from
  /// ForEachEdge on purpose: it probes every edge of a touched node by
  /// name, and moving commits onto the id-space walk halves their overlay
  /// merge, which shifts the ingest/read balance `ingest_serve` measures
  /// (E29).
  std::vector<NodeRef> AdjacentNodes(const NodeRef& n) const {
    std::vector<NodeRef> out;
    const serve::NodeId n_id = base.FindNode(n.second, n.first);
    const bool touches_s = delta.TouchesSubject(n.first, n.second);
    const bool touches_o = delta.TouchesObject(n.first, n.second);
    if (n_id != serve::kInvalidNode) {
      for (const serve::KgSnapshot::Edge& e : base.OutEdges(n_id)) {
        if (touches_s &&
            Retracted(TripleView(n.first, n.second,
                                 base.PredicateName(e.first),
                                 base.NodeKindOf(e.second),
                                 base.NodeName(e.second)))) {
          continue;
        }
        out.push_back(RefOf(base, e.second));
      }
      for (const serve::KgSnapshot::Edge& e : base.InEdges(n_id)) {
        if (touches_o &&
            Retracted(TripleView(base.NodeKindOf(e.second),
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
          n.first, n.second, std::nullopt,
          [&](const TripleName& t, const MemDelta::Entry& e) {
            if (e.state != MemDelta::State::kUpserted) return;
            if (FindBaseTriple(base, t)) return;
            out.emplace_back(t.object_kind, t.object);
          });
    }
    if (touches_o) {
      delta.ForEachByObject(
          n.first, n.second, std::nullopt,
          [&](const TripleName& t, const MemDelta::Entry& e) {
            if (e.state != MemDelta::State::kUpserted) return;
            if (FindBaseTriple(base, t)) return;
            out.emplace_back(t.subject_kind, t.subject);
          });
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Base node `id`'s entries in `run`, only `only`'s predicate when
  /// non-null.
  static std::span<const OverlayEdge> RunOf(
      const std::vector<OverlayEdge>& run, serve::NodeId id,
      const serve::OnePredicate* only) {
    const auto first = std::partition_point(
        run.begin(), run.end(), [&](const OverlayEdge& e) {
          return e.node < id ||
                 (only != nullptr && e.node == id && e.predicate < only->id);
        });
    const auto last =
        std::partition_point(first, run.end(), [&](const OverlayEdge& e) {
          return e.node == id && (only == nullptr || e.predicate == only->id);
        });
    return {first, last};
  }

  /// The view's edge walk (serve/read.h): the base row merged with the
  /// node's run, which drops retracted edges and adds upserts, goes to
  /// `on_base`. The rest — upserts with a part only the overlay names —
  /// go to `on_overlay(predicate, far end)`, viewing into the delta.
  /// Only those need the name-keyed delta, so it is read for
  /// overlay-only nodes and for the base nodes of the gate, never per
  /// edge.
  template <typename OnBase, typename OnOverlay>
  void ForEachEdge(serve::NodeId id, const serve::NodeKey& n,
                   serve::Direction dir, const serve::OnePredicate* only,
                   const OnBase& on_base, const OnOverlay& on_overlay) const {
    const bool out = dir == serve::Direction::kOut;
    if (id != serve::kInvalidNode) {
      if (only == nullptr || only->id != serve::kInvalidNode) {
        const std::span<const OverlayEdge> run =
            RunOf(out ? overlay.out : overlay.in, id, only);
        auto r = run.begin();
        for (const serve::KgSnapshot::Edge& e :
             out ? base.OutEdges(id) : base.InEdges(id)) {
          if (only != nullptr && e.first < only->id) continue;
          if (only != nullptr && e.first > only->id) break;
          for (; r != run.end() && std::tie(r->predicate, r->far) <
                                       std::tie(e.first, e.second);
               ++r) {
            if (r->added) on_base(r->predicate, r->far);
          }
          if (r != run.end() && r->predicate == e.first &&
              r->far == e.second) {
            const bool retracted = !r->added;
            ++r;
            if (retracted) continue;
          }
          on_base(e.first, e.second);
        }
        for (; r != run.end(); ++r) {
          if (r->added) on_base(r->predicate, r->far);
        }
      }
      if (!Gated(id)) return;
    }
    // An upsert of a base node whose predicate and far end the base both
    // name was emitted above (from the run, or from the row it repeats).
    // Entries come predicate-major, so an unrestricted walk resolves the
    // predicate once per run of equal names.
    std::optional<std::string_view> pred_name;
    serve::PredicateId pred_id =
        only != nullptr ? only->id : serve::kInvalidNode;
    const auto surface = [&](const TripleName& t, const MemDelta::Entry& e) {
      if (e.state != MemDelta::State::kUpserted) return;
      if (id != serve::kInvalidNode) {
        if (only == nullptr && pred_name != t.predicate) {
          pred_name = t.predicate;
          pred_id = base.FindPredicate(t.predicate);
        }
        if (pred_id != serve::kInvalidNode &&
            BaseId(FarEnd(t, dir)) != serve::kInvalidNode) {
          return;
        }
      }
      on_overlay(t.predicate, FarEnd(t, dir));
    };
    const std::optional<std::string_view> bound =
        only != nullptr ? std::optional<std::string_view>(only->name)
                        : std::nullopt;
    if (out) {
      delta.ForEachBySubject(n.first, n.second, bound, surface);
    } else {
      delta.ForEachByObject(n.first, n.second, bound, surface);
    }
  }
};

/// Sorted, distinct names of the entities adjacent to `n` in the view —
/// this store's share of one neighbor's second hop in a routed top-k.
std::vector<std::string> AdjacentEntities(const MergedView& view,
                                          const serve::NodeKey& n) {
  std::vector<serve::NodeId> ids;
  std::vector<std::string> names;
  serve::ForEachAdjacent(
      view, view.BaseId(n), n,
      [&](serve::NodeId m) {
        if (view.base.NodeKindOf(m) == graph::NodeKind::kEntity) {
          ids.push_back(m);
        }
      },
      [&](const serve::NodeKey& m) {
        if (m.first == graph::NodeKind::kEntity) names.emplace_back(m.second);
      });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  names.reserve(names.size() + ids.size());
  for (const serve::NodeId m : ids) names.emplace_back(view.base.NodeName(m));
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// The generation counters a commit bumps (VersionedKgStore's cache
/// rule): the predicates it writes and the top-k centers it can reach.
struct GenerationBumps {
  std::set<std::string> predicates;
  std::set<std::string> nodes;
};

/// The bumps of committing `mutations`, read off `next`, the epoch the
/// commit publishes.
GenerationBumps BumpsOf(const StoreEpoch& next,
                        std::span<const Mutation> mutations) {
  // Top-k(x) depends on edges incident to x (first hop) and to x's
  // neighbors (second hop). A mutation of edge (s, o) therefore affects
  // {s, o}, plus N(s) — but only when o is an entity (for x in N(s) the
  // edge contributes the candidate o via the path x–s–o, and candidates
  // are entity-filtered) — and symmetrically N(o) only when s is an
  // entity. Adjacency is read from the post-commit epoch; within a batch
  // that post-state union still covers every intermediate state, because
  // a neighbor another batch entry disconnected appears in that entry's
  // own {s, o} set.
  const MergedView view(next);
  GenerationBumps bumps;
  for (const Mutation& m : mutations) {
    bumps.predicates.insert(m.predicate);
    const NodeRef s{m.subject_kind, m.subject};
    const NodeRef o{m.object_kind, m.object};
    bumps.nodes.insert(Render(s));
    bumps.nodes.insert(Render(o));
    if (o.first == graph::NodeKind::kEntity) {
      for (const NodeRef& n : view.AdjacentNodes(s)) {
        bumps.nodes.insert(Render(n));
      }
    }
    if (s.first == graph::NodeKind::kEntity) {
      for (const NodeRef& n : view.AdjacentNodes(o)) {
        bumps.nodes.insert(Render(n));
      }
    }
  }
  return bumps;
}

/// Assigns the merged vocabulary of a fold its dense ids: base entries
/// 0..base_count-1 (sorted by `key_of`; kInvalidNode in `remap` marks
/// one compiled out) interleaved in key order with the overlay-only keys
/// of `fresh`. Fills `remap` and `fresh` with the new ids and calls
/// `add(key, base id or kInvalidNode)` in id order.
template <typename Key, typename KeyOf, typename Add>
void MergeVocabulary(const KeyOf& key_of, std::map<Key, uint32_t>* fresh,
                     std::vector<uint32_t>* remap, const Add& add) {
  const auto base_count = static_cast<uint32_t>(remap->size());
  uint32_t next = 0;
  auto it = fresh->begin();
  for (uint32_t b = 0; b <= base_count; ++b) {
    for (; it != fresh->end() && (b == base_count || it->first < key_of(b));
         ++it) {
      add(it->first, serve::kInvalidNode);
      it->second = next++;
    }
    if (b == base_count || (*remap)[b] == serve::kInvalidNode) continue;
    add(key_of(b), b);
    (*remap)[b] = next++;
  }
}

/// The store's one fold, used by compaction and WAL recovery: streams
/// base ⊕ delta (base triples minus retractions, plus upserts), both in
/// canonical (kind, name) order, through SnapshotBuilder. Bit-identical
/// to KgSnapshot::Compile of the merged graph.
serve::KgSnapshot FoldDelta(const serve::KgSnapshot& base,
                            const MemDelta& delta) {
  if (delta.empty()) return base;
  using Ids = std::array<uint32_t, 3>;

  // 1. Retracted base triples (base ids) and upserts the base lacks;
  //    every other entry changes nothing. The delta iterates in the same
  //    canonical order the ids follow, so both lists come out sorted.
  std::vector<Ids> removed;
  std::vector<const TripleName*> added;
  delta.ForEach([&](const TripleName& t, const MemDelta::Entry& e) {
    const auto ids = FindBaseTriple(base, t);
    if (e.state == MemDelta::State::kRetracted && ids) removed.push_back(*ids);
    if (e.state == MemDelta::State::kUpserted && !ids) added.push_back(&t);
  });

  // 2. Degree arithmetic: a base node or predicate is compiled out
  //    (kInvalidNode) once the overlay retracts as many of its triples as
  //    the base holds, unless an upsert names it. Names the base lacks
  //    join the vocabulary.
  std::vector<uint32_t> node_remap(base.num_nodes(), 0);
  std::vector<uint32_t> pred_remap(base.num_predicates(), 0);
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
  std::map<serve::NodeKey, uint32_t> new_nodes;
  std::map<std::string_view, uint32_t> new_preds;
  const auto name_node = [&](graph::NodeKind kind, const std::string& name) {
    if (const serve::NodeId id = base.FindNode(name, kind);
        id != serve::kInvalidNode) {
      node_remap[id] = 0;
    } else {
      new_nodes.emplace(serve::NodeKey{kind, name}, 0);
    }
  };
  for (const TripleName* t : added) {
    name_node(t->subject_kind, t->subject);
    name_node(t->object_kind, t->object);
    if (const serve::PredicateId p = base.FindPredicate(t->predicate);
        p != serve::kInvalidNode) {
      pred_remap[p] = 0;
    } else {
      new_preds.emplace(t->predicate, 0);
    }
  }

  // 3. The merged vocabulary, and the upserts in its ids.
  serve::SnapshotBuilder builder;
  std::vector<uint32_t> row_source;  // new node id -> base id
  MergeVocabulary(
      [&](uint32_t b) {
        return serve::NodeKey{base.NodeKindOf(b), base.NodeName(b)};
      },
      &new_nodes, &node_remap, [&](const serve::NodeKey& k, uint32_t b) {
        builder.AddNode(k.second, k.first);
        row_source.push_back(b);
      });
  MergeVocabulary(
      [&](uint32_t p) { return base.PredicateName(p); }, &new_preds,
      &pred_remap,
      [&](std::string_view name, uint32_t) { builder.AddPredicate(name); });
  const auto node_id = [&](graph::NodeKind kind, const std::string& name) {
    const serve::NodeId id = base.FindNode(name, kind);
    return id != serve::kInvalidNode
               ? node_remap[id]
               : new_nodes.at(serve::NodeKey{kind, name});
  };
  std::vector<Ids> added_ids;
  for (const TripleName* t : added) {
    const serve::PredicateId p = base.FindPredicate(t->predicate);
    added_ids.push_back({node_id(t->subject_kind, t->subject),
                         p != serve::kInvalidNode ? pred_remap[p]
                                                  : new_preds.at(t->predicate),
                         node_id(t->object_kind, t->object)});
  }

  // 4. Per subject in new-id order: its base row, remapped (monotone, so
  //    still sorted) and minus retractions, merged with its upserts.
  //    Decoded edge ids index the remap tables only when in range.
  const auto remap = [](const std::vector<uint32_t>& table, uint32_t id) {
    return id < table.size() ? table[id] : serve::kInvalidNode;
  };
  auto built = builder.Build([&](const serve::SnapshotBuilder::TripleSink&
                                     sink) {
    auto cut = removed.begin();
    auto add = added_ids.begin();
    for (uint32_t s = 0; s < row_source.size(); ++s) {
      for (const serve::KgSnapshot::Edge& e : base.OutEdges(row_source[s])) {
        const Ids key{row_source[s], e.first, e.second};
        while (cut != removed.end() && *cut < key) ++cut;
        if (cut != removed.end() && *cut == key) continue;
        const Ids out{s, remap(pred_remap, e.first),
                      remap(node_remap, e.second)};
        for (; add != added_ids.end() && *add < out; ++add) {
          sink((*add)[0], (*add)[1], (*add)[2]);
        }
        sink(out[0], out[1], out[2]);
      }
      for (; add != added_ids.end() && (*add)[0] == s; ++add) {
        sink((*add)[0], (*add)[1], (*add)[2]);
      }
    }
  });
  KG_CHECK_OK(built.status());  // ids and order are correct by construction
  return *std::move(built);
}

}  // namespace

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
    for (const Mutation& m : replay.mutations) {
      recovered.Apply(m, store->next_seq_++);
    }
    if (store->metrics_.wal_replayed != nullptr) {
      store->metrics_.wal_replayed->Set(
          static_cast<int64_t>(replay.mutations.size()));
    }
  }
  if (options.cache_capacity > 0) {
    store->cache_ =
        std::make_unique<serve::ShardedLruCache>(options.cache_capacity);
  }
  auto epoch = std::make_shared<StoreEpoch>();
  epoch->version = 0;
  // The replayed log is folded into the first base, so a reopened store
  // starts with an empty overlay (and empty runs).
  epoch->base = std::make_shared<const serve::KgSnapshot>(
      FoldDelta(serve::KgSnapshot::Compile(base), recovered));
  epoch->delta = std::make_shared<const MemDelta>();
  store->current_ = std::move(epoch);
  return store;
}

void VersionedKgStore::PublishEpoch(std::shared_ptr<const StoreEpoch> epoch,
                                    std::span<const Mutation> mutations) {
  // The walk reads only `epoch`, which no reader can see yet, so it runs
  // before the lock.
  const GenerationBumps bumps =
      cache_ ? BumpsOf(*epoch, mutations) : GenerationBumps{};
  // Declared before the lock, so it is destroyed after the unlock: when
  // no reader pins the retired epoch, freeing it (its copied MemDelta,
  // and after a fold the old base) must not hold every reader's pin.
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
  auto next_delta = std::make_shared<MemDelta>(*current_->delta);
  for (const Mutation& m : mutations) next_delta->Apply(m, next_seq_++);
  // The base is unchanged, so the previous runs stay valid; the batch's
  // triples are resolved at their final state and replace their entries.
  std::vector<RunChange> changes;
  std::vector<serve::NodeId> gate;
  for (const Mutation& m : mutations) {
    const TripleView t = TripleView::Of(m);
    Resolve(*current_->base, t, next_delta->Lookup(t), &changes, &gate);
  }
  auto epoch = std::make_shared<StoreEpoch>();
  epoch->version = current_->version + 1;
  epoch->base = current_->base;
  epoch->delta = std::move(next_delta);
  epoch->overlay =
      ExtendOverlay(current_->overlay, std::move(changes), std::move(gate));
  const uint64_t published_version = epoch->version;
  const size_t published_delta = epoch->delta->size();
  PublishEpoch(std::move(epoch), mutations);
  if (metrics_.stage_overlay_merge != nullptr) {
    metrics_.stage_overlay_merge->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t_merge)
            .count());
  }
  if (metrics_.applied_mutations != nullptr) {
    metrics_.applied_mutations->Inc(mutations.size());
    if (wal_) metrics_.wal_appended->Inc(mutations.size());
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
  return serve::Read(MergedView(epoch), query);
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

Result<EpochTaggedAdjacency> VersionedKgStore::TryAdjacentEntitiesTagged(
    std::span<const serve::NodeKey> nodes) const {
  EpochTaggedAdjacency tagged;
  // Watermark before the pin, as in TryExecuteTagged.
  tagged.epoch = applied_watermark();
  const std::shared_ptr<const StoreEpoch> epoch = PinEpoch();
  KG_RETURN_IF_ERROR(serve::CheckSchema(*epoch->base));
  const MergedView view(*epoch);
  tagged.entities.reserve(nodes.size());
  for (const serve::NodeKey& n : nodes) {
    tagged.entities.push_back(AdjacentEntities(view, n));
  }
  return tagged;
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

std::vector<serve::QueryResult> VersionedKgStore::BatchExecute(
    const std::vector<serve::Query>& queries, const ExecPolicy& exec) const {
  const std::shared_ptr<const StoreEpoch> epoch = PinEpoch();
  std::vector<serve::QueryResult> results(queries.size());
  // One pinned epoch + index-addressed slots: the output is a pure
  // function of (epoch, queries), identical at any thread count.
  ParallelForChunked(exec, queries.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = ExecuteAt(*epoch, queries[i]);
    }
  });
  return results;
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
  std::shared_ptr<const StoreEpoch> pinned;
  {
    std::lock_guard<std::mutex> writer(writer_mu_);
    pinned = current_;  // O(1) pin; Apply resumes as soon as we unlock
    fold.seq = next_seq_ - 1;
  }
  // The slow part — folding the pinned overlay into a fresh CSR
  // snapshot — runs without any lock, so writers and readers proceed at
  // full speed underneath it.
  fold.base = std::make_shared<const serve::KgSnapshot>(
      FoldDelta(*pinned->base, *pinned->delta));
  return fold;
}

VersionedKgStore::CompactionStats VersionedKgStore::InstallFold(
    PendingFold fold) {
  CompactionStats stats;
  {
    std::lock_guard<std::mutex> writer(writer_mu_);
    const std::shared_ptr<const MemDelta> old_delta = current_->delta;
    auto next_delta = std::make_shared<MemDelta>(*old_delta);
    // Entries at or before the fold line are the new base's; newer ones
    // keep shadowing it (their state already accounts for any base).
    next_delta->TrimThrough(fold.seq);
    stats.folded = old_delta->size() - next_delta->size();
    auto epoch = std::make_shared<StoreEpoch>();
    epoch->version = current_->version + 1;
    epoch->base = std::move(fold.base);
    epoch->delta = std::move(next_delta);
    // The fold renumbered the base: resolve the surviving entries anew.
    epoch->overlay = ResolveOverlay(*epoch->base, *epoch->delta);
    stats.version = epoch->version;
    stats.base_fingerprint = epoch->base->Fingerprint();
    const size_t remaining_delta = epoch->delta->size();
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

size_t VersionedKgStore::delta_size() const { return PinEpoch()->delta->size(); }

uint64_t VersionedKgStore::AuthoritativeFingerprint() const {
  const std::shared_ptr<const StoreEpoch> epoch = PinEpoch();
  const serve::KgSnapshot& base = *epoch->base;
  // The sum commutes, so the overlay adjusts the base's total: it adds
  // the upserts the base lacks and subtracts the base triples it retracts.
  uint64_t fingerprint = 0;
  for (serve::NodeId s = 0; s < base.num_nodes(); ++s) {
    for (const serve::KgSnapshot::Edge& e : base.OutEdges(s)) {
      fingerprint += graph::TripleFingerprint(
          base.NodeName(s), base.NodeKindOf(s), base.PredicateName(e.first),
          base.NodeName(e.second), base.NodeKindOf(e.second));
    }
  }
  epoch->delta->ForEach([&](const TripleName& t, const MemDelta::Entry& e) {
    const bool in_base = FindBaseTriple(base, t).has_value();
    const uint64_t h = graph::TripleFingerprint(
        t.subject, t.subject_kind, t.predicate, t.object, t.object_kind);
    if (e.state == MemDelta::State::kUpserted && !in_base) fingerprint += h;
    if (e.state == MemDelta::State::kRetracted && in_base) fingerprint -= h;
  });
  return fingerprint;
}

}  // namespace kg::store
