#ifndef KGRAPH_SERVE_SNAPSHOT_H_
#define KGRAPH_SERVE_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "graph/knowledge_graph.h"
#include "serve/varint.h"

namespace kg::obs {
class MetricsRegistry;
}  // namespace kg::obs

namespace kg::serve {

/// Dense node handle inside one snapshot. Assigned by sorting the live
/// vocabulary by (kind, name), so equal knowledge always compiles to equal
/// ids regardless of how the source KnowledgeGraph was built.
using NodeId = uint32_t;
/// Dense predicate handle, assigned by sorted name.
using PredicateId = uint32_t;

inline constexpr NodeId kInvalidNode = graph::kInvalidNode;

/// Schema generation of the snapshot format this build compiles and
/// serves. A snapshot stamped with a *newer* generation (a replica fed
/// by an upgraded builder, a file from a future version) must be
/// refused with kUnavailable — never misread — by both in-process read
/// paths (CheckSchema) and the RPC handshake.
inline constexpr uint32_t kSnapshotSchemaVersion = 1;

class KgSnapshot;

/// The in-process read paths' schema gate (QueryEngine::TryExecute and
/// the versioned store's Try* reads): kUnavailable when `snapshot`
/// claims a generation newer than kSnapshotSchemaVersion, else OK.
Status CheckSchema(const KgSnapshot& snapshot);

/// The sections of a compiled snapshot, in the order they appear in the
/// binary file format (DESIGN.md §15). Exposed so the binary save/load
/// path, the footprint accounting, and the fuzz tests all agree on one
/// enumeration.
enum SnapshotSection : size_t {
  kSectionNodeKinds = 0,     ///< uint8_t[num_nodes]
  kSectionNodeNameOffsets,   ///< uint32_t[num_nodes + 1] into node arena
  kSectionNodeArena,         ///< concatenated node names, id order
  kSectionPredNameOffsets,   ///< uint32_t[num_predicates + 1]
  kSectionPredArena,         ///< concatenated predicate names, id order
  kSectionSpoOffsets,        ///< uint64_t[num_nodes + 1] into SPO bytes
  kSectionSpoBytes,          ///< varint edge rows, Edge{predicate, object}
  kSectionPredTripleCounts,  ///< uint64_t[num_predicates], triple counts
  kSectionOspOffsets,        ///< uint64_t[num_nodes + 1]
  kSectionOspBytes,          ///< varint edge rows, Edge{predicate, subject}
  kSectionNodeIndexEntity,   ///< IndexSlot[power of two], kEntity names
  kSectionNodeIndexText,     ///< IndexSlot[power of two], kText names
  kSectionNodeIndexClass,    ///< IndexSlot[power of two], kClass names
  kSectionPredIndex,         ///< IndexSlot[power of two], predicate names
  kNumSnapshotSections,
};

/// One slot of a persisted flat open-addressing name index: the 64-bit
/// FNV-1a of the name, then the owning id + 1 (0 marks an empty slot).
/// Fixed 16-byte layout so the table can live in the mmap'd file.
struct SnapshotIndexSlot {
  uint64_t hash = 0;
  uint32_t id_plus_1 = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(SnapshotIndexSlot) == 16);

/// An immutable, read-optimized compilation of a KnowledgeGraph: the live
/// triple set re-interned into dense sorted ids with CSR-style adjacency in
/// the two access orders the serving queries need —
///   SPO (per subject, sorted by predicate then object),
///   OSP (per object,  sorted by predicate then subject) —
/// plus each predicate's triple count.
/// Tombstoned triples and nodes/predicates that appear only in tombstones
/// are compiled out, so the snapshot — including `Fingerprint()` — is a
/// pure function of the asserted knowledge.
///
/// Representation (built for 10M+ node worlds): names live in one string
/// arena addressed by offset (no per-name allocation), and each CSR row is
/// a count-prefixed delta-varint byte string (see AppendEdgeRow), decoded
/// on the fly by EdgeRange. The whole object is a set of views over one
/// backing allocation — either heap storage produced by SnapshotBuilder or
/// an mmap'd snapshot file — so copies are shallow and loads stay
/// O(pages touched).
///
/// Thread-safe for concurrent readers (it never mutates after build).
class KgSnapshot {
 public:
  /// One adjacency entry; field meaning depends on the index it lives in.
  struct Edge {
    uint32_t first = 0;
    uint32_t second = 0;

    friend bool operator==(const Edge&, const Edge&) = default;
  };

  /// A lazily decoded CSR row: forward-iterable, yields Edge in sorted
  /// (first, second) order. Decoding is bounds-clamped — malformed bytes
  /// end the range early rather than reading out of the row.
  class EdgeRange {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Edge;
      using difference_type = std::ptrdiff_t;
      using pointer = const Edge*;
      using reference = const Edge&;

      iterator() = default;
      iterator(const uint8_t* p, const uint8_t* end, uint64_t count)
          : p_(p), end_(end), left_(count) {
        Advance();
      }

      reference operator*() const { return cur_; }
      pointer operator->() const { return &cur_; }
      iterator& operator++() {
        Advance();
        return *this;
      }
      iterator operator++(int) {
        iterator copy = *this;
        Advance();
        return copy;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.avail_ == b.avail_ && (!a.avail_ || a.p_ == b.p_);
      }

     private:
      void Advance();

      const uint8_t* p_ = nullptr;
      const uint8_t* end_ = nullptr;
      uint64_t left_ = 0;  ///< entries not yet decoded
      bool avail_ = false;
      Edge cur_{};
    };

    EdgeRange() = default;
    /// Wraps one encoded row (empty bytes == empty row). Clamps a hostile
    /// count to what the payload could physically hold (>= 2 bytes/edge).
    EdgeRange(const uint8_t* begin, const uint8_t* end);

    iterator begin() const { return iterator(payload_, end_, count_); }
    iterator end() const { return iterator(); }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

   private:
    const uint8_t* payload_ = nullptr;
    const uint8_t* end_ = nullptr;
    uint64_t count_ = 0;
  };

  KgSnapshot() = default;

  /// Compiles the live triples of `kg`. O(V log V + T log T).
  static KgSnapshot Compile(const graph::KnowledgeGraph& kg);

  // --- Vocabulary -------------------------------------------------------

  size_t num_nodes() const { return num_nodes_; }
  size_t num_predicates() const { return num_predicates_; }
  size_t num_triples() const { return num_triples_; }

  /// Looks up a node by (name, kind); kInvalidNode when the pair never
  /// occurs in a live triple. A miss is an answer, not an error: reads
  /// and commits miss on purpose (names only an overlay knows), so it
  /// allocates nothing.
  NodeId FindNode(std::string_view name, graph::NodeKind kind) const;
  /// Looks up a predicate by name; kInvalidNode on a miss, like FindNode.
  PredicateId FindPredicate(std::string_view name) const;

  /// The name bytes of `id`, viewing into the snapshot's arena. Valid as
  /// long as the snapshot (or any copy of it) is alive. Out-of-range ids
  /// (possible when corrupt postings are served under BinaryVerify::
  /// kHeader) yield an empty name, never an out-of-bounds read.
  std::string_view NodeName(NodeId id) const {
    if (id >= num_nodes_) return {};
    return ArenaSlice(node_name_offsets_, node_arena_, node_arena_size_,
                      id);
  }
  graph::NodeKind NodeKindOf(NodeId id) const {
    if (id >= num_nodes_) return graph::NodeKind::kEntity;
    return static_cast<graph::NodeKind>(node_kinds_[id] <= 2
                                            ? node_kinds_[id]
                                            : 0);
  }
  std::string_view PredicateName(PredicateId id) const {
    if (id >= num_predicates_) return {};
    return ArenaSlice(pred_name_offsets_, pred_arena_, pred_arena_size_,
                      id);
  }

  // --- Indexed access ---------------------------------------------------
  // Out-of-range row ids yield an empty range rather than aborting:
  // corrupt postings served under BinaryVerify::kHeader can put any
  // uint32 into an Edge, and query paths (BFS expansion, merged reads)
  // feed decoded ids straight back into these accessors.

  /// Out-edges of `s`: Edge{predicate, object}, sorted (p, o).
  EdgeRange OutEdges(NodeId s) const;

  /// In-edges of `o`: Edge{predicate, subject}, sorted (p, s).
  EdgeRange InEdges(NodeId o) const;

  /// Number of triples whose predicate is `p`; 0 for an out-of-range id.
  uint64_t PredicateTripleCount(PredicateId p) const {
    return p < num_predicates_ ? pred_triple_counts_[p] : 0;
  }

  /// The number of objects o with (s, p, o). One pass over row s with
  /// early exit past predicate p: O(deg(s)) worst case, O(prefix) typical.
  size_t CountObjects(NodeId s, PredicateId p) const;

  bool HasTriple(NodeId s, PredicateId p, NodeId o) const;

  size_t OutDegree(NodeId s) const { return OutEdges(s).size(); }
  size_t InDegree(NodeId o) const { return InEdges(o).size(); }

  /// FNV-1a over the sorted vocabulary and triple list; stable across
  /// platforms, runs, and source-KG insertion orders. Two snapshots with
  /// equal fingerprints serve identical answers.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// Schema generation this snapshot claims to be encoded in. Compile()
  /// stamps the build's own kSnapshotSchemaVersion.
  uint32_t schema_version() const { return schema_version_; }

  /// Re-stamps the claimed schema generation. This models receiving a
  /// snapshot from a newer builder (replication, forward-compat tests);
  /// engines must refuse to serve it when the stamp is newer than they
  /// understand.
  void OverrideSchemaVersion(uint32_t version) { schema_version_ = version; }

  // --- Introspection ----------------------------------------------------

  /// Resident size of the compiled representation, by component.
  struct Footprint {
    uint64_t kind_bytes = 0;      ///< node kind array
    uint64_t arena_bytes = 0;     ///< node + predicate name bytes
    uint64_t offset_bytes = 0;    ///< name + CSR offsets, predicate counts
    uint64_t posting_bytes = 0;   ///< varint edge rows, both orders
    uint64_t index_bytes = 0;     ///< name index slot arrays

    uint64_t total() const {
      return kind_bytes + arena_bytes + offset_bytes + posting_bytes +
             index_bytes;
    }
  };
  Footprint MemoryFootprint() const;

  /// Raw bytes of every section in SnapshotSection order; zero-copy views
  /// into this snapshot. The binary serializer writes exactly these.
  std::array<std::string_view, kNumSnapshotSections> SectionBytes() const;

  /// Internal-format entry point used by SnapshotBuilder and the binary
  /// loader: assembles a snapshot whose views point into `sections`
  /// (which must outlive the snapshot via `backing` and satisfy the
  /// alignment of their element types). Callers are responsible for the
  /// structural validity of the bytes; the accessors above only promise
  /// memory safety (bounds clamping), not correct answers, for byte
  /// soup.
  struct RawParts {
    uint64_t num_nodes = 0;
    uint64_t num_predicates = 0;
    uint64_t num_triples = 0;
    uint64_t fingerprint = 0;
    uint32_t schema_version = kSnapshotSchemaVersion;
    std::array<std::string_view, kNumSnapshotSections> sections;
  };
  static KgSnapshot FromRawParts(const RawParts& parts,
                                 std::shared_ptr<const void> backing);

 private:
  friend class SnapshotBuilder;

  /// A persisted flat open-addressing name index (power-of-two slots,
  /// linear probing, <= 50% load when built). Find returns the id, or
  /// kInvalidNode on a miss. Probes are capped at the slot count so
  /// corrupt tables terminate.
  struct IndexView {
    const SnapshotIndexSlot* slots = nullptr;
    uint64_t mask = 0;  ///< slot count - 1; slots == nullptr when empty

    template <typename NameOf>
    uint32_t Find(std::string_view name, uint32_t id_limit,
                  NameOf&& name_of) const {
      if (slots == nullptr) return kInvalidNode;
      const uint64_t h = Fnv1a64(name);
      for (uint64_t probe = 0, slot = h & mask; probe <= mask;
           ++probe, slot = (slot + 1) & mask) {
        const SnapshotIndexSlot& s = slots[slot];
        if (s.id_plus_1 == 0) return kInvalidNode;
        if (s.hash == h) {
          const uint32_t id = s.id_plus_1 - 1;
          if (id < id_limit && name_of(id) == name) return id;
        }
      }
      return kInvalidNode;  // corrupt over-full table: every slot probed
    }
  };

  /// One CSR order: row i's encoded bytes are bytes[offsets[i],
  /// offsets[i+1]).
  struct CsrView {
    const uint64_t* offsets = nullptr;  ///< rows + 1 entries
    const uint8_t* bytes = nullptr;
    uint64_t byte_size = 0;
  };

  static std::string_view ArenaSlice(const uint32_t* offsets,
                                     const char* arena, uint64_t arena_size,
                                     uint32_t id) {
    uint64_t b = offsets[id], e = offsets[id + 1];
    if (b > arena_size) b = arena_size;
    if (e > arena_size) e = arena_size;
    if (e < b) e = b;
    return {arena + b, static_cast<size_t>(e - b)};
  }

  EdgeRange Row(const CsrView& csr, uint64_t row) const;

  uint64_t num_nodes_ = 0;
  uint64_t num_predicates_ = 0;
  uint64_t num_triples_ = 0;

  const uint8_t* node_kinds_ = nullptr;
  const uint32_t* node_name_offsets_ = nullptr;
  const char* node_arena_ = nullptr;
  uint64_t node_arena_size_ = 0;
  const uint32_t* pred_name_offsets_ = nullptr;
  const char* pred_arena_ = nullptr;
  uint64_t pred_arena_size_ = 0;

  CsrView spo_{};
  CsrView osp_{};
  const uint64_t* pred_triple_counts_ = nullptr;

  std::array<IndexView, 3> node_index_{};  ///< One table per NodeKind.
  IndexView predicate_index_{};

  uint64_t fingerprint_ = 0;
  uint32_t schema_version_ = kSnapshotSchemaVersion;

  /// Owns whatever the views point into (heap storage or an mmap).
  std::shared_ptr<const void> backing_;
};

/// Appends the encoding of one CSR row to `out`: varint(edge count), then
/// per edge varint(first - prev.first) followed by varint(second -
/// prev.second) when the first delta is zero, else varint(second).
/// Precondition: `edges` sorted by (first, second). An empty row encodes
/// to zero bytes. KgSnapshot::EdgeRange decodes it.
void AppendEdgeRow(std::string* out,
                   const std::vector<KgSnapshot::Edge>& edges);

/// Streams a snapshot together without materializing a KnowledgeGraph:
/// feed the vocabulary in dense-id order, then Build() with a triple
/// stream. Peak transient memory is O(vocab + 8 bytes * triples),
/// independent of how the triples are produced.
class SnapshotBuilder {
 public:
  using TripleSink = std::function<void(uint32_t s, uint32_t p, uint32_t o)>;
  using TripleStream = std::function<void(const TripleSink&)>;

  SnapshotBuilder();

  /// Phase 1: vocabulary, in the exact dense-id order the triples will
  /// reference. For canonical (Compile-equal) snapshots that order is
  /// (kind, name)-sorted nodes and name-sorted predicates.
  void AddNode(std::string_view name, graph::NodeKind kind);
  void AddPredicate(std::string_view name);

  /// Phase 2: `stream` must invoke the sink once per triple, sorted by
  /// (s, p, o) (duplicates allowed), and must replay the identical
  /// sequence each time it is called — Build calls it at most twice,
  /// once per CSR order. Returns InvalidArgument on out-of-range ids,
  /// ordering violations, or a vocabulary whose name arena would exceed
  /// the 32-bit offset space of the snapshot format.
  Result<KgSnapshot> Build(const TripleStream& stream);

 private:
  struct Storage;
  std::shared_ptr<Storage> storage_;
  bool built_ = false;
};

/// Recomputes the canonical FNV-1a fingerprint from the snapshot's
/// vocabulary and SPO walk (the same function Compile evaluates). Used by
/// the binary loader's verify mode and the property tests; O(content).
uint64_t RecomputeFingerprint(const KgSnapshot& snapshot);

/// Publishes the component byte sizes of `snapshot` (MemoryFootprint plus
/// node/triple counts) as `serve.snapshot.*` gauges. No-op when
/// `registry` is null.
void PublishSnapshotFootprint(const KgSnapshot& snapshot,
                              obs::MetricsRegistry* registry);

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_SNAPSHOT_H_
