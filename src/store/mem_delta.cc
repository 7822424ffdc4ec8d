#include "store/mem_delta.h"

namespace kg::store {

namespace {

MemDelta::State StateOf(const Mutation& m) {
  return m.op == MutationOp::kUpsert ? MemDelta::State::kUpserted
                                     : MemDelta::State::kRetracted;
}

}  // namespace

void MemDelta::Apply(const Mutation& m, uint64_t seq) {
  const Entry entry{StateOf(m), seq};
  if (const auto it = by_subject_.find(TripleView::Of(m));
      it != by_subject_.end()) {
    it->second = entry;
  } else {
    by_object_.insert(&*by_subject_.emplace(TripleName::Of(m), entry).first);
  }
}

MemDelta::State MemDelta::Lookup(const TripleView& t) const {
  const auto it = by_subject_.find(t);
  return it == by_subject_.end() ? State::kUntouched : it->second.state;
}

bool MemDelta::TouchesSubject(graph::NodeKind kind,
                              std::string_view name) const {
  const auto it = by_subject_.lower_bound(
      TripleView(kind, name, {}, graph::NodeKind::kEntity, {}));
  return it != by_subject_.end() && it->first.subject_kind == kind &&
         it->first.subject == name;
}

bool MemDelta::TouchesObject(graph::NodeKind kind,
                             std::string_view name) const {
  const auto it = by_object_.lower_bound(
      TripleView(graph::NodeKind::kEntity, {}, {}, kind, name));
  return it != by_object_.end() && (*it)->first.object_kind == kind &&
         (*it)->first.object == name;
}

void MemDelta::TrimThrough(uint64_t seq) {
  // The object index first: its pointers name by_subject_'s nodes.
  for (auto it = by_object_.begin(); it != by_object_.end();) {
    it = (*it)->second.seq <= seq ? by_object_.erase(it) : std::next(it);
  }
  for (auto it = by_subject_.begin(); it != by_subject_.end();) {
    it = it->second.seq <= seq ? by_subject_.erase(it) : std::next(it);
  }
}

}  // namespace kg::store
