#ifndef KGRAPH_STORE_MEM_DELTA_H_
#define KGRAPH_STORE_MEM_DELTA_H_

#include <cstdint>
#include <map>
#include <set>
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
};

/// A triple addressed by borrowed names: the key MemDelta's probes take,
/// so a probe copies no name. Converts implicitly from a TripleName, as a
/// std::string_view does from a std::string; valid while the names it
/// views are.
struct TripleView {
  graph::NodeKind subject_kind = graph::NodeKind::kEntity;
  std::string_view subject;
  std::string_view predicate;
  graph::NodeKind object_kind = graph::NodeKind::kEntity;
  std::string_view object;

  TripleView(graph::NodeKind s_kind, std::string_view s, std::string_view p,
             graph::NodeKind o_kind, std::string_view o)
      : subject_kind(s_kind), subject(s), predicate(p), object_kind(o_kind),
        object(o) {}
  TripleView(const TripleName& t)  // NOLINT(runtime/explicit)
      : TripleView(t.subject_kind, t.subject, t.predicate, t.object_kind,
                   t.object) {}

  static TripleView Of(const Mutation& m) {
    return TripleView(m.subject_kind, m.subject, m.predicate, m.object_kind,
                      m.object);
  }
};

/// The store writer's index of mutations not yet folded into the base
/// snapshot, keyed by name. Each touched triple carries its *final* state
/// (last op in log order wins) plus the sequence number of that op, so:
///   - a commit reads each batch triple's final state with one probe
///     (kRetracted hides a base triple, kUpserted surfaces a new one) and
///     resolves it into the epoch's id-space runs;
///   - compaction can fold everything through sequence S into a new base
///     and keep only entries whose last op is newer — an entry's state
///     shadows any base correctly regardless of where the fold line
///     falls.
///
/// Ordered (subject-major, plus an object-major index for in-edge walks)
/// so iteration order is a pure function of content. Probes and walks
/// take borrowed names and a callable, and allocate nothing. Not
/// internally synchronized, and not copyable (the object index points
/// into the subject index): the store updates its one index in place
/// under the writer lock, and readers never see it.
class MemDelta {
 public:
  MemDelta() = default;
  MemDelta(const MemDelta&) = delete;
  MemDelta& operator=(const MemDelta&) = delete;
  MemDelta(MemDelta&&) = default;
  MemDelta& operator=(MemDelta&&) = default;

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
  State Lookup(const TripleView& t) const;

  /// True when the overlay touches any triple with this subject (or
  /// object): exact, never a name-prefix match.
  bool TouchesSubject(graph::NodeKind kind, std::string_view name) const;
  bool TouchesObject(graph::NodeKind kind, std::string_view name) const;

  /// Calls `fn(const TripleName&, const Entry&)` for the entries with
  /// the given subject, in (predicate, object_kind, object) order. The
  /// TripleName is the stored key: a caller may view into it while the
  /// entry lives.
  template <typename Fn>
  void ForEachBySubject(graph::NodeKind kind, std::string_view name,
                        const Fn& fn) const {
    // kEntity and "" are the smallest kind and names, so the probe sorts
    // first among the entries it bounds.
    for (auto it = by_subject_.lower_bound(
             TripleView(kind, name, {}, graph::NodeKind::kEntity, {}));
         it != by_subject_.end() && it->first.subject_kind == kind &&
         it->first.subject == name;
         ++it) {
      fn(it->first, it->second);
    }
  }

  /// ForEachBySubject's twin over the entries with the given object, in
  /// (predicate, subject_kind, subject) order.
  template <typename Fn>
  void ForEachByObject(graph::NodeKind kind, std::string_view name,
                       const Fn& fn) const {
    for (auto it = by_object_.lower_bound(
             TripleView(graph::NodeKind::kEntity, {}, {}, kind, name));
         it != by_object_.end() && (*it)->first.object_kind == kind &&
         (*it)->first.object == name;
         ++it) {
      fn((*it)->first, (*it)->second);
    }
  }

  /// Calls `fn(const TripleName&, const Entry&)` for every entry, in
  /// subject-major order.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (const auto& [name, entry] : by_subject_) fn(name, entry);
  }

  /// Drops entries whose last op is <= `seq` — the fold line of a
  /// completed compaction (those states are now the base's).
  void TrimThrough(uint64_t seq);

  size_t size() const { return by_subject_.size(); }
  bool empty() const { return by_subject_.empty(); }

 private:
  /// (subject_kind, subject, predicate, object_kind, object) order.
  struct SubjectMajor {
    using is_transparent = void;
    bool operator()(const TripleView& a, const TripleView& b) const {
      return std::tie(a.subject_kind, a.subject, a.predicate, a.object_kind,
                      a.object) < std::tie(b.subject_kind, b.subject,
                                           b.predicate, b.object_kind,
                                           b.object);
    }
  };
  using Entries = std::map<TripleName, Entry, SubjectMajor>;
  /// An entry of by_subject_: its node never moves while the entry lives.
  using EntryRef = const Entries::value_type*;
  /// (object_kind, object, predicate, subject_kind, subject) order, over
  /// entries and probes alike.
  struct ObjectMajor {
    using is_transparent = void;
    static TripleView Key(EntryRef e) { return e->first; }
    static TripleView Key(const TripleView& t) { return t; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const TripleView x = Key(a);
      const TripleView y = Key(b);
      return std::tie(x.object_kind, x.object, x.predicate, x.subject_kind,
                      x.subject) < std::tie(y.object_kind, y.object,
                                            y.predicate, y.subject_kind,
                                            y.subject);
    }
  };

  Entries by_subject_;
  /// The same entries by object, as pointers: each name and state is
  /// stored once.
  std::set<EntryRef, ObjectMajor> by_object_;
};

}  // namespace kg::store

#endif  // KGRAPH_STORE_MEM_DELTA_H_
