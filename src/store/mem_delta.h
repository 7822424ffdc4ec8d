#ifndef KGRAPH_STORE_MEM_DELTA_H_
#define KGRAPH_STORE_MEM_DELTA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <tuple>

#include "graph/knowledge_graph.h"
#include "store/wal.h"

namespace kg::store {

/// A triple addressed by names, the mutation/overlay coordinate system
/// (snapshot ids are epoch-local; names are forever).
struct TripleName {
  graph::NodeKind subject_kind = graph::NodeKind::kEntity;
  std::string subject;
  std::string predicate;
  graph::NodeKind object_kind = graph::NodeKind::kEntity;
  std::string object;

  static TripleName Of(const Mutation& m) {
    return TripleName{m.subject_kind, m.subject, m.predicate,
                      m.object_kind, m.object};
  }

  friend bool operator==(const TripleName&, const TripleName&) = default;
  friend auto operator<=>(const TripleName& a, const TripleName& b) {
    return std::tie(a.subject_kind, a.subject, a.predicate, a.object_kind,
                    a.object) <=> std::tie(b.subject_kind, b.subject,
                                           b.predicate, b.object_kind,
                                           b.object);
  }
};

/// The in-memory overlay of mutations not yet folded into the base
/// snapshot. Each touched triple carries its *final* state (last op in
/// log order wins) plus the sequence number of that op, so:
///   - query-time merges shadow the base with one ordered-map probe
///     (kRetracted hides a base triple, kUpserted surfaces a new one);
///   - compaction can fold everything through sequence S into a new base
///     and keep only entries whose last op is newer — an entry's state
///     shadows any base correctly regardless of where the fold line
///     falls.
///
/// Ordered (std::map over TripleName, subject-major) so iteration order —
/// and everything derived from it, e.g. merged query answers — is a pure
/// function of content. A secondary object-major index serves in-edge
/// merges. Not internally synchronized: the store publishes deltas as
/// immutable copy-on-write snapshots behind an epoch swap.
class MemDelta {
 public:
  enum class State : uint8_t {
    kUntouched = 0,  ///< The overlay says nothing; the base decides.
    kUpserted = 1,   ///< Present regardless of the base.
    kRetracted = 2,  ///< Absent regardless of the base.
  };

  struct Entry {
    State state = State::kUntouched;
    uint64_t seq = 0;  ///< Log sequence of the last op on this triple.
  };

  /// Records `m` as operation `seq`, overwriting any previous state of
  /// the same triple (last op wins).
  void Apply(const Mutation& m, uint64_t seq);

  /// The overlay's verdict on one triple.
  State Lookup(const TripleName& t) const;

  /// True when the overlay touches any triple with this subject
  /// (cheap pre-check so base-edge merges skip per-edge probes for
  /// untouched subjects).
  bool TouchesSubject(graph::NodeKind kind, std::string_view name) const;
  bool TouchesObject(graph::NodeKind kind, std::string_view name) const;

  /// True when the overlay touches any triple carrying this predicate —
  /// the pre-check that lets predicate-scoped scans (attribute-by-type)
  /// skip the merge entirely and read the base snapshot directly.
  bool TouchesPredicate(std::string_view name) const;

  /// Visits entries with the given subject in (predicate, object_kind,
  /// object) order. For every ForEach*, the TripleName argument lives only
  /// for the call (ForEachByObject builds a temporary per entry): copy a
  /// name the caller keeps, never hold a string_view into it.
  void ForEachBySubject(
      graph::NodeKind kind, std::string_view name,
      const std::function<void(const TripleName&, const Entry&)>& fn) const;

  /// Visits entries with the given object in (predicate, subject_kind,
  /// subject) order.
  void ForEachByObject(
      graph::NodeKind kind, std::string_view name,
      const std::function<void(const TripleName&, const Entry&)>& fn) const;

  /// Visits every entry in subject-major order.
  void ForEach(
      const std::function<void(const TripleName&, const Entry&)>& fn) const;

  /// Drops entries whose last op is <= `seq` — the fold line of a
  /// completed compaction (those states are now the base's).
  void TrimThrough(uint64_t seq);

  size_t size() const { return by_subject_.size(); }
  bool empty() const { return by_subject_.empty(); }

  /// Highest sequence applied (0 when empty since construction).
  uint64_t last_seq() const { return last_seq_; }

 private:
  /// Object-major key: (object_kind, object, predicate, subject_kind,
  /// subject).
  using ObjectKey = std::tuple<graph::NodeKind, std::string, std::string,
                               graph::NodeKind, std::string>;

  // Entries are duplicated (by value) across both maps so the default
  // copy — the store's copy-on-write publish — stays trivially correct.
  std::map<TripleName, Entry> by_subject_;
  std::map<ObjectKey, Entry> by_object_;
  /// Live-entry count per predicate, kept in lockstep with by_subject_.
  std::map<std::string, size_t, std::less<>> predicate_counts_;
  uint64_t last_seq_ = 0;
};

}  // namespace kg::store

#endif  // KGRAPH_STORE_MEM_DELTA_H_
