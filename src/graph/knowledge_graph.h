#ifndef KGRAPH_GRAPH_KNOWLEDGE_GRAPH_H_
#define KGRAPH_GRAPH_KNOWLEDGE_GRAPH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace kg::graph {

/// Interned node handle. Nodes are entities, free-text values, or ontology
/// classes; the distinction is the defining difference between the paper's
/// entity-based KGs (mostly kEntity nodes) and text-rich KGs (mostly kText
/// value nodes forming a bipartite graph).
using NodeId = uint32_t;
/// Interned predicate (relation / attribute name) handle.
using PredicateId = uint32_t;
/// Dense triple handle; stable for the life of the graph (removal
/// tombstones rather than reindexes).
using TripleId = uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr TripleId kInvalidTriple =
    std::numeric_limits<TripleId>::max();

/// The role a node plays in the graph.
enum class NodeKind : uint8_t {
  kEntity = 0,  ///< Named real-world entity with identity (person, movie).
  kText = 1,    ///< Non-canonical text value (product flavor "mocha").
  kClass = 2,   ///< Ontology class / taxonomy type.
};

/// A node kind's byte in the binary formats that name kinds (WAL records,
/// RPC frames): the enum's value. The inverse refuses a byte that names
/// no kind.
inline uint8_t NodeKindByte(NodeKind kind) {
  return static_cast<uint8_t>(kind);
}
Result<NodeKind> NodeKindFromByte(uint8_t byte);

/// Where a triple came from and how much we believe it. A triple can carry
/// several provenances (one per contributing source or extractor).
struct Provenance {
  std::string source;        ///< Source or extractor identifier.
  double confidence = 1.0;   ///< Extraction/fusion confidence in [0, 1].
  int64_t timestamp = 0;     ///< Logical time the fact was asserted.
};

/// (subject, predicate, object) — the unit of knowledge.
struct Triple {
  NodeId subject = kInvalidNode;
  PredicateId predicate = 0;
  NodeId object = kInvalidNode;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// An in-memory knowledge graph: interned nodes and predicates, deduplicated
/// triples with per-source provenance, and subject/object/predicate indexes
/// for the query patterns the construction pipelines need.
///
/// Thread-compatible: concurrent readers are safe once mutation stops.
class KnowledgeGraph {
 public:
  KnowledgeGraph() = default;

  // --- Vocabulary -------------------------------------------------------

  /// Interns a node, creating it on first use. A (name, kind) pair
  /// identifies a node: "Avatar" the entity and "Avatar" the text value
  /// are distinct nodes.
  NodeId AddNode(std::string_view name, NodeKind kind);

  /// Looks up an existing node.
  Result<NodeId> FindNode(std::string_view name, NodeKind kind) const;

  /// Interns a predicate, creating it on first use.
  PredicateId AddPredicate(std::string_view name);

  /// Looks up an existing predicate.
  Result<PredicateId> FindPredicate(std::string_view name) const;

  const std::string& NodeName(NodeId id) const;
  NodeKind GetNodeKind(NodeId id) const;
  const std::string& PredicateName(PredicateId id) const;

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_predicates() const { return predicate_names_.size(); }

  // --- Triples ----------------------------------------------------------

  /// Adds (s, p, o) with `prov`; if the triple already exists, appends the
  /// provenance instead of duplicating. Returns the triple handle.
  ///
  /// Duplicate-assertion semantics (pinned by
  /// KnowledgeGraphTest.DuplicateAssertionIsProvenanceAppend): asserting
  /// the same (s, p, o) twice yields ONE triple — same handle, one
  /// AllTriples entry, unchanged query answers — whose provenance list
  /// holds every assertion in order, with MaxConfidence tracking the
  /// best of them. Re-asserting a *removed* triple revives the same
  /// handle carrying only the new provenance (the tombstoned history
  /// does not resurrect).
  TripleId AddTriple(NodeId s, PredicateId p, NodeId o, Provenance prov);

  /// Convenience overload interning names on the fly. `object_kind` selects
  /// between entity objects (entity-based KGs) and text-value objects
  /// (text-rich KGs).
  TripleId AddTriple(std::string_view subject, std::string_view predicate,
                     std::string_view object, NodeKind subject_kind,
                     NodeKind object_kind, Provenance prov);

  /// Tombstones a triple (knowledge cleaning). Queries no longer return it.
  void RemoveTriple(TripleId id);

  bool IsRemoved(TripleId id) const { return removed_[id]; }

  /// Whether (s, p, o) is asserted (and not removed).
  bool HasTriple(NodeId s, PredicateId p, NodeId o) const;

  /// Finds the live triple (s, p, o), or kInvalidTriple.
  TripleId FindTriple(NodeId s, PredicateId p, NodeId o) const;

  const Triple& triple(TripleId id) const { return triples_[id]; }
  const std::vector<Provenance>& provenance(TripleId id) const {
    return provenance_[id];
  }

  /// Count of live (non-removed) triples.
  size_t num_triples() const { return live_triples_; }
  /// Count including tombstones (the valid TripleId range).
  size_t num_triples_allocated() const { return triples_.size(); }

  // --- Queries ----------------------------------------------------------

  /// Objects o with (s, p, o).
  std::vector<NodeId> Objects(NodeId s, PredicateId p) const;

  /// Subjects s with (s, p, o).
  std::vector<NodeId> Subjects(PredicateId p, NodeId o) const;

  /// Live triples with subject `s`.
  std::vector<TripleId> TriplesWithSubject(NodeId s) const;

  /// Live triples with object `o`.
  std::vector<TripleId> TriplesWithObject(NodeId o) const;

  /// Live triples with predicate `p`.
  std::vector<TripleId> TriplesWithPredicate(PredicateId p) const;

  /// All live triple ids.
  std::vector<TripleId> AllTriples() const;

  /// Renders "subject --predicate--> object" for debugging.
  std::string TripleToString(TripleId id) const;

  /// Highest confidence among a triple's provenances (0 if none).
  double MaxConfidence(TripleId id) const;

 private:
  struct NodeRecord {
    std::string name;
    NodeKind kind;
  };

  static uint64_t TripleKey(NodeId s, PredicateId p, NodeId o) {
    uint64_t h = kg::HashCombine(std::hash<uint64_t>()(s),
                                 std::hash<uint64_t>()(p));
    return kg::HashCombine(h, std::hash<uint64_t>()(o));
  }

  std::vector<NodeRecord> nodes_;
  // (kind, name) -> NodeId. Key embeds the kind in the first byte.
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<std::string> predicate_names_;
  std::unordered_map<std::string, PredicateId> predicate_index_;

  std::vector<Triple> triples_;
  std::vector<std::vector<Provenance>> provenance_;
  std::vector<bool> removed_;
  size_t live_triples_ = 0;

  // spo hash -> candidate triple ids (collisions resolved by comparison).
  std::unordered_map<uint64_t, std::vector<TripleId>> spo_index_;
  std::unordered_map<NodeId, std::vector<TripleId>> s_index_;
  std::unordered_map<NodeId, std::vector<TripleId>> o_index_;
  std::unordered_map<PredicateId, std::vector<TripleId>> p_index_;
};

/// FNV-1a of one (subject name+kind, predicate name, object name+kind)
/// triple: the term TripleSetFingerprint sums.
uint64_t TripleFingerprint(std::string_view subject, NodeKind subject_kind,
                           std::string_view predicate, std::string_view object,
                           NodeKind object_kind);

/// Order-insensitive 64-bit fingerprint of the live triple set: the
/// TripleFingerprint of each live triple combined commutatively (summed).
/// Two graphs asserting the same knowledge fingerprint identically
/// regardless of node ids or insertion order; stable across platforms
/// and runs (built on Fnv1a64, not std::hash). Used by the
/// parallel-determinism golden tests and the scaling benches to assert the
/// serial ≡ parallel invariant.
uint64_t TripleSetFingerprint(const KnowledgeGraph& kg);

}  // namespace kg::graph

#endif  // KGRAPH_GRAPH_KNOWLEDGE_GRAPH_H_
