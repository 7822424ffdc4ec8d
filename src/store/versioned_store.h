#ifndef KGRAPH_STORE_VERSIONED_STORE_H_
#define KGRAPH_STORE_VERSIONED_STORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"
#include "serve/lru_cache.h"
#include "serve/query_engine.h"
#include "serve/read.h"
#include "serve/snapshot.h"
#include "store/mem_delta.h"
#include "store/wal.h"

namespace kg::store {

struct StoreOptions {
  /// WAL file; empty runs the store in-memory (tests, ephemeral
  /// replicas). Each commit is flushed to the OS before it is applied,
  /// never fsynced: an acknowledged commit survives a process kill, not a
  /// power loss (ROADMAP item 7). When the file exists, Open replays it —
  /// truncating any torn tail — before serving.
  std::string wal_path;
  /// Result-cache entries; 0 disables caching. Only the scan classes
  /// (attribute-by-type, top-k related) are cached; point lookups and
  /// neighborhoods always read the pinned epoch.
  size_t cache_capacity = 0;
  /// Write-path metrics land here when non-null (not owned; must outlive
  /// the store): "store.applied_mutations" / "store.wal.appended_records"
  /// / "store.compactions" / "store.compaction.folded" counters plus
  /// "store.epoch.version" / "store.delta.size" /
  /// "store.wal.replayed_records" / "store.compaction.last_us" gauges.
  /// All updates happen on the (serialized) write path, never per read.
  /// Also feeds the write path's stage attribution: "stage_us.wal_append"
  /// (the log write and its flush to the OS; no fsync) and
  /// "stage_us.overlay_merge" (index and run upkeep, cache bumps and the
  /// epoch publish) per applied batch.
  obs::MetricsRegistry* registry = nullptr;
  /// With `registry` and a cache, also time the read path's result-cache
  /// probe into per-class "stage_us.cache_probe.<class>" histograms. All
  /// four are registered; only the cached classes (attribute_by_type,
  /// topk_related) observe, so the point_lookup and neighborhood ones
  /// stay empty. Two extra clock reads per cached read, so opt-in like
  /// serve's time_queries.
  bool time_stages = false;
};

/// One overlay triple in its epoch's id space, as a walk in one direction
/// meets it: `node` is the walked endpoint (the subject in the out-run,
/// the object in the in-run) and `far` the other one.
struct OverlayEdge {
  serve::NodeId node = 0;
  serve::PredicateId predicate = 0;
  serve::NodeId far = 0;
  bool added = false;  ///< An upsert the base lacks; else a retraction.
};

/// Every overlay entry that changes its epoch's base: what merged reads
/// merge with the base CSR rows, and what a fold folds.
struct OverlayRuns {
  /// Sorted (subject, predicate, object): every retracted base triple and
  /// every upsert the base lacks.
  std::vector<OverlayEdge> out;
  /// The same triples, sorted (object, predicate, subject).
  std::vector<OverlayEdge> in;
};

/// The names an epoch's overlay adds to its base's id space, all names
/// the base lacks: node id base.num_nodes() + i is nodes[i], predicate id
/// base.num_predicates() + i is predicates[i]. The views point into
/// `storage`, the name store of the epoch's lineage (the epochs between
/// two folds): it only grows, a commit appends to it under the writer
/// lock, and a fold starts a new one, so a pinned epoch's names never
/// move. A commit copies these vectors only when it adds a name.
struct OverlayNames {
  std::shared_ptr<const std::deque<std::string>> storage;
  std::vector<serve::NodeKey> nodes;
  std::vector<std::string_view> predicates;
  /// Indices into `nodes` in (kind, name) order, and into `predicates` in
  /// name order: the lookup index.
  std::vector<uint32_t> node_order;
  std::vector<uint32_t> predicate_order;

  /// The index of `n` in `nodes`, or kInvalidNode.
  uint32_t FindNode(const serve::NodeKey& n) const;
  /// The index of `name` in `predicates`, or kInvalidNode.
  uint32_t FindPredicate(std::string_view name) const;
};

/// One immutable MVCC version of the store: a base snapshot plus the
/// overlay of mutations applied after the base was compiled, all in one
/// id space: the base's ids, then the overlay's names past them. Readers
/// pin an epoch with a `shared_ptr` and keep a frozen, consistent view for
/// as long as they hold it, while writers publish successors; an epoch is
/// reclaimed when its last pin drops. An epoch is a serve/read.h view: the
/// query bodies read it directly (VersionedKgStore::ExecuteAt), and
/// store_property_test checks that they answer exactly like QueryEngine
/// over a from-scratch rebuild at the same version.
struct StoreEpoch {
  uint64_t version = 0;  ///< Bumps on every applied batch and compaction.
  /// The epoch holds the log's first `seq` mutations; its base holds the
  /// first `base_seq` of them, and its overlay the rest.
  uint64_t base_seq = 0;
  uint64_t seq = 0;
  std::shared_ptr<const serve::KgSnapshot> base;
  std::shared_ptr<const OverlayNames> names;  ///< Never null.
  /// A commit extends its predecessor's runs with its batch; compaction,
  /// the only point where base ids change, resolves the surviving entries
  /// anew. Empty at Open, whose overlay is empty.
  OverlayRuns overlay;
  /// The writer's index size when this epoch was published:
  /// VersionedKgStore::delta_size().
  size_t delta_size = 0;

  /// `n`'s id in this epoch, kInvalidNode when neither the base nor the
  /// overlay names it.
  serve::NodeId FindNode(const serve::NodeKey& n) const;
  serve::PredicateId FindPredicate(std::string_view name) const;

  /// The names of this epoch's ids (valid ids only).
  std::string_view NodeName(serve::NodeId id) const {
    const size_t b = base->num_nodes();
    return id < b ? base->NodeName(id) : names->nodes[id - b].second;
  }
  graph::NodeKind NodeKindOf(serve::NodeId id) const {
    const size_t b = base->num_nodes();
    return id < b ? base->NodeKindOf(id) : names->nodes[id - b].first;
  }
  std::string_view PredicateName(serve::PredicateId id) const {
    const size_t b = base->num_predicates();
    return id < b ? base->PredicateName(id) : names->predicates[id - b];
  }
  size_t num_nodes() const {
    return base->num_nodes() + names->nodes.size();
  }
  size_t num_base_nodes() const { return base->num_nodes(); }
  size_t DegreeHint(serve::NodeId id) const {
    return base->OutDegree(id) + base->InDegree(id);
  }

  /// The base row merged with the node's run: the run drops retracted
  /// edges and adds upserts, in (predicate, far) id order. A node or
  /// predicate past the base's has no base row to merge.
  template <typename Fn>
  void ForEachEdge(serve::NodeId id, serve::Direction dir,
                   serve::OnlyPredicate only, const Fn& fn) const;
};

template <typename Fn>
void StoreEpoch::ForEachEdge(serve::NodeId id, serve::Direction dir,
                             serve::OnlyPredicate only, const Fn& fn) const {
  if (id == serve::kInvalidNode || only == serve::kInvalidNode) return;
  const bool out = dir == serve::Direction::kOut;
  // The node's slice of the run, only `only`'s predicate when set.
  const std::vector<OverlayEdge>& run = out ? overlay.out : overlay.in;
  auto r = std::partition_point(run.begin(), run.end(), [&](const auto& e) {
    return e.node < id || (only && e.node == id && e.predicate < *only);
  });
  const auto run_end = std::partition_point(r, run.end(), [&](const auto& e) {
    return e.node == id && (!only || e.predicate == *only);
  });
  if (!only || *only < base->num_predicates()) {
    for (const serve::KgSnapshot::Edge& e :
         out ? base->OutEdges(id) : base->InEdges(id)) {
      if (only && e.first < *only) continue;
      if (only && e.first > *only) break;
      for (; r != run_end &&
             std::tie(r->predicate, r->far) < std::tie(e.first, e.second);
           ++r) {
        if (r->added) fn(r->predicate, r->far);
      }
      if (r != run_end && r->predicate == e.first && r->far == e.second) {
        const bool retracted = !r->added;
        ++r;
        if (retracted) continue;
      }
      fn(e.first, e.second);
    }
  }
  for (; r != run_end; ++r) {
    if (r->added) fn(r->predicate, r->far);
  }
}

/// VersionedKgStore::TryOutEntitiesTagged's answer, tagged like
/// serve::EpochTaggedResult.
struct EpochTaggedAdjacency {
  uint64_t epoch = 0;
  /// entities[i]: sorted, distinct names of the entities at the far end
  /// of the i-th requested node's out-edges.
  std::vector<std::vector<std::string>> entities;
};

/// VersionedKgStore::TryRingScoresTagged's answer, tagged like
/// serve::EpochTaggedResult: at most k entities, best first.
struct EpochTaggedScores {
  uint64_t epoch = 0;
  std::vector<serve::ScoredEntity> best;
};

/// A versioned, mutable KG store layered on the immutable serving
/// snapshot — the LSM-style write path production KGs use so a stream of
/// corrections never forces a rebuild-the-world redeploy:
///
///   Apply --> WAL (framed+checksummed, flushed to the OS, not fsynced)
///         --> the writer's MemDelta, updated in place
///         --> new StoreEpoch published (runs and names in id space)
///
/// The epoch's (base, overlay) pair is the store's only copy of the
/// knowledge the reads see: the overlay is every entry that changes the
/// base, as id triples in sorted runs, with the names the base lacks
/// given ids past its own. Reads pin an epoch and run serve/read.h's
/// query bodies through a view that merges base CSR range reads with the
/// runs (retractions shadow base triples, upserts surface new ones), in
/// ids only: no read touches a name-keyed structure. The writer's
/// MemDelta, every triple touched since the fold line keyed by name, is
/// its private index: it decides each commit's final states, feeds the
/// cache's generation bumps and survives a fold's trim. Every answer is
/// byte-identical to `serve::QueryEngine` over a from-scratch rebuild at
/// that version (store_property_test, 100 worlds). Compaction streams
/// base ⊕ runs through one fold into a fresh `KgSnapshot` (optionally on
/// a `ThreadPool`) and swaps it in atomically; because the index keeps
/// any entry newer than the fold line, serving is never wrong during or
/// after the fold, and the folded snapshot is bit-identical to compiling
/// a batch build of the same knowledge. WAL recovery runs the same fold
/// once at Open.
///
/// Concurrency contract:
///   - Writers (Apply*/Compact) serialize on an internal writer lock.
///   - Readers never block writers and writers never block readers
///     beyond the epoch publish: a pointer swap plus the commit's
///     generation bumps, under one brief exclusive lock. Pinned epochs
///     stay valid forever.
///   - Mutation order is fully specified by the log; replaying the WAL
///     onto the same base yields a bit-identical store.
///
/// Cache policy — one rule, for the scan-shaped classes only. Point
/// lookups and neighborhoods always answer from the pinned epoch.
/// Attribute-by-type and top-k answers are cached under one stable key
/// per query, with a generation tag in row 0 of the stored value; a hit
/// needs the stored tag to equal the current one. An attribute-by-type
/// answer depends only on triples whose predicate is the queried
/// attribute or the type predicate, so its tag is those two predicates'
/// generation counters. A top-k answer depends only on the 2-hop ball
/// around its center, so its tag is the center's node generation, and a
/// mutation of edge (s, o) bumps {s, o}, plus N(s) when o is an entity
/// and N(o) when s is an entity (second-hop candidates are
/// entity-filtered, so a center two hops away only sees the edge
/// through its entity endpoint).
///
/// The rule is exact because tags and epochs move together: a commit
/// computes its bumps from the epoch it is about to publish and applies
/// them in the exclusive section that swaps that epoch in, and a cached
/// read takes its tag and pins its epoch in one shared section. A tag
/// therefore names the answer of the epoch pinned with it, so a hit
/// equals that epoch's answer and a miss fills from it. A retired entry
/// is overwritten in place by the next read — no erase sets, no flushes
/// (a fold changes no answer and tags are keyed by name), and untouched
/// predicates/nodes keep their hits across writes.
class VersionedKgStore {
 public:
  struct CompactionStats {
    bool ran = false;         ///< False when another fold was in flight.
    uint64_t folded = 0;      ///< Overlay entries folded into the base.
    uint64_t version = 0;     ///< Version of the installed epoch.
    uint64_t base_fingerprint = 0;
    double seconds = 0.0;
  };

  /// Builds a store over a compiled snapshot of `base` (the graph is not
  /// kept). With a WAL path, existing records are replayed (torn tail
  /// truncated) into an overlay that is folded into the first base, so
  /// reopening after a crash reproduces the pre-crash state
  /// bit-identically.
  static Result<std::unique_ptr<VersionedKgStore>> Open(
      const graph::KnowledgeGraph& base, StoreOptions options = {});

  VersionedKgStore(const VersionedKgStore&) = delete;
  VersionedKgStore& operator=(const VersionedKgStore&) = delete;

  // --- Write path -------------------------------------------------------

  Status Apply(const Mutation& mutation);

  /// Applies `mutations` in order as one logical commit (one WAL record,
  /// one published epoch). With a WAL, a commit `EncodeCommit` refuses
  /// (too large to ship in one kWalBatch frame) fails with
  /// kInvalidArgument before anything is logged or applied.
  Status ApplyBatch(std::span<const Mutation> mutations);

  // --- Read path --------------------------------------------------------

  /// Pins the current epoch. The returned view is immutable and
  /// consistent; concurrent writers publish successors without
  /// disturbing it.
  std::shared_ptr<const StoreEpoch> PinEpoch() const;

  /// Answers `query` against the current epoch. With a cache, the scan
  /// classes go through it under the generation-tag rule (see the class
  /// comment); every answer equals ExecuteAt on an epoch current during
  /// the call.
  serve::QueryResult Execute(const serve::Query& query) const;

  /// Execute with the forward-compatibility gate (serve::CheckSchema on
  /// the current epoch's base snapshot): kUnavailable when it claims a
  /// schema generation newer than this build. The path the RPC server
  /// fronts a mutable store through.
  Result<serve::QueryResult> TryExecute(const serve::Query& query) const;

  /// TryExecute plus the replication-epoch tag (see applied_watermark).
  /// The tag is read *before* the rows are computed, so the rows always
  /// reflect at least the tagged offset — the inequality the cluster
  /// router's bounded-staleness policy rests on.
  Result<serve::EpochTaggedResult> TryExecuteTagged(
      const serve::Query& query) const;

  /// Routed top-k's out-hop round (kg::cluster::QueryRouter): for each
  /// node in `nodes`, the sorted, distinct names of the entities at the
  /// far end of its live merged out-edges, all over one pinned epoch and
  /// bypassing the cache. Tagged and schema-gated like TryExecuteTagged.
  Result<EpochTaggedAdjacency> TryOutEntitiesTagged(
      std::span<const serve::NodeKey> nodes) const;

  /// Routed top-k's owner-scored round: serve::ReadRingScores over one
  /// pinned epoch, bypassing the cache — the k best entities m by how
  /// many of the center's `ring` nodes n they reach through an edge m→n
  /// this store holds or a pair (n, m) in `hops`. Tagged and
  /// schema-gated like TryExecuteTagged.
  Result<EpochTaggedScores> TryRingScoresTagged(
      const serve::NodeKey& center, std::span<const serve::NodeKey> ring,
      std::span<const serve::RingHop> hops, size_t k) const;

  /// Answers `query` against a pinned epoch, bypassing the cache (the
  /// cache tracks the *current* version; time-travel reads must not mix
  /// with it). This is the reference path Execute is checked against.
  serve::QueryResult ExecuteAt(const StoreEpoch& epoch,
                               const serve::Query& query) const;

  // --- Compaction -------------------------------------------------------

  /// Folds the overlay into a fresh base snapshot and publishes it.
  /// Runs on the calling thread; concurrent Apply keeps working (the
  /// writer lock is held only to install the result, not while folding).
  /// Returns `ran == false` when another compaction is in flight.
  CompactionStats Compact();

  /// Schedules Compact() on `pool`; returns false (and does nothing)
  /// when one is already queued or running. Use `pool.WaitIdle()` to
  /// join it.
  bool CompactInBackground(ThreadPool& pool);

  bool compaction_in_flight() const {
    return compaction_in_flight_.load(std::memory_order_acquire);
  }

  // --- Introspection ----------------------------------------------------

  /// Version of the current epoch (0 right after Open).
  uint64_t version() const;

  /// Mutations applied since Open (includes WAL-replayed ones).
  uint64_t applied_mutations() const;

  /// Triples touched since the fold line, entries that change nothing
  /// included: the writer's index size, as the current epoch recorded it
  /// (lock-free).
  size_t delta_size() const;

  /// `graph::TripleSetFingerprint` of the knowledge in the current epoch
  /// (base ⊕ runs) — equals the fingerprint of a from-scratch batch
  /// build that applied the same mutation log. O(base triples).
  uint64_t AuthoritativeFingerprint() const;

  /// Null when caching is disabled.
  serve::ShardedLruCache* cache() const { return cache_.get(); }

  const Wal* wal() const { return wal_ ? &*wal_ : nullptr; }

  /// Replication watermark: an opaque monotone offset (the shipped-WAL
  /// byte offset in kg::cluster) describing how much of some external
  /// log this store's content reflects. The store never interprets it;
  /// a replica's apply loop advances it *after* the matching ApplyBatch
  /// commits, so content always covers the watermark.
  uint64_t applied_watermark() const {
    return applied_watermark_.load(std::memory_order_acquire);
  }
  void set_applied_watermark(uint64_t offset) {
    applied_watermark_.store(offset, std::memory_order_release);
  }

 private:
  /// Runs Compact()'s two steps apart, so a test can land a write
  /// between the fold's pin and its install.
  friend class CompactionSteps;

  VersionedKgStore() = default;

  /// A pinned epoch's fold, waiting to be installed.
  struct PendingFold {
    std::chrono::steady_clock::time_point started;
    uint64_t seq = 0;  ///< Last mutation the fold covers.
    std::shared_ptr<const serve::KgSnapshot> base;
  };
  /// Compact()'s first step: claims the compaction slot (empty when it is
  /// taken), pins the current epoch and folds it with no lock held.
  std::optional<PendingFold> PinAndFold();
  /// Compact()'s second step: trims the folded entries from the writer's
  /// index, resolves the rest against the new base in a new lineage,
  /// publishes it and releases the compaction slot.
  CompactionStats InstallFold(PendingFold fold);

  /// Execute and TryExecute's one body: pins the current epoch — with
  /// the query's generation tag, for a cached class — in one shared
  /// section, gates on that epoch's schema when asked, and answers from
  /// it.
  Result<serve::QueryResult> Read(const serve::Query& query,
                                  bool check_schema) const;

  /// The generation tag for `q`, a cached (scan-class) query. Caller
  /// holds `epoch_mu_`.
  std::string GenTag(const serve::Query& q) const;

  /// Publishes `epoch`, the result of committing `mutations` (none for a
  /// fold, which changes no answer). With a cache, the generation bumps
  /// the commit makes are computed from `epoch` first, then applied in
  /// the exclusive section that swaps it in. Caller holds `writer_mu_`.
  void PublishEpoch(std::shared_ptr<const StoreEpoch> epoch,
                    std::span<const Mutation> mutations = {});

  /// Pre-resolved registry handles (all null when options_.registry is);
  /// registration locks once in Open, never on the write path.
  struct StoreMetrics {
    obs::Counter* applied_mutations = nullptr;
    obs::Counter* wal_appended = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* folded = nullptr;
    obs::Gauge* epoch_version = nullptr;
    obs::Gauge* delta_size = nullptr;
    obs::Gauge* wal_replayed = nullptr;
    obs::Gauge* compaction_last_us = nullptr;
    obs::Histogram* stage_wal_append = nullptr;
    obs::Histogram* stage_overlay_merge = nullptr;
    std::array<obs::Histogram*, serve::kNumQueryKinds> stage_cache_probe{};
  };

  StoreOptions options_;
  StoreMetrics metrics_{};
  std::optional<Wal> wal_;

  /// Serializes writers; guards next_seq_, delta_ and names_.
  mutable std::mutex writer_mu_;
  uint64_t next_seq_ = 1;
  /// The writer's index: every triple touched since the fold line, by
  /// name, at its last state. Never read by a reader, never copied.
  MemDelta delta_;
  /// The current lineage's name store, which epochs view as
  /// OverlayNames::storage. Appended to only here, under writer_mu_.
  std::shared_ptr<std::deque<std::string>> names_;

  /// Guards the current-epoch pointer and the generation counters, so a
  /// tag and an epoch are always read and published together. Shared:
  /// pin (+ tag, for a cached read); exclusive: publish + bump.
  mutable std::shared_mutex epoch_mu_;
  std::shared_ptr<const StoreEpoch> current_;

  std::unique_ptr<serve::ShardedLruCache> cache_;
  std::atomic<bool> compaction_in_flight_{false};
  std::atomic<uint64_t> applied_watermark_{0};

  /// Generation counters behind the cached answers' tags, read by every
  /// cached Execute. Entries accumulate per distinct touched
  /// predicate/node — bounded by the vocabulary, not by the write count.
  std::unordered_map<std::string, uint64_t> predicate_gen_;
  std::unordered_map<std::string, uint64_t> node_gen_;
};

}  // namespace kg::store

#endif  // KGRAPH_STORE_VERSIONED_STORE_H_
