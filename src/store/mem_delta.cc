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
  const auto it = by_subject_.find(TripleView::Of(m));
  if (it != by_subject_.end()) {
    it->second = entry;
    by_object_.find(TripleView::Of(m))->second = entry;
  } else {
    const TripleName name = TripleName::Of(m);
    by_subject_.emplace(name, entry);
    by_object_.emplace(name, entry);
    ++predicate_counts_[name.predicate];
  }
  if (seq > last_seq_) last_seq_ = seq;
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
  return it != by_object_.end() && it->first.object_kind == kind &&
         it->first.object == name;
}

bool MemDelta::TouchesPredicate(std::string_view name) const {
  const auto it = predicate_counts_.find(name);
  return it != predicate_counts_.end() && it->second > 0;
}

void MemDelta::TrimThrough(uint64_t seq) {
  for (auto it = by_subject_.begin(); it != by_subject_.end();) {
    if (it->second.seq <= seq) {
      const auto count = predicate_counts_.find(it->first.predicate);
      if (count != predicate_counts_.end() && --count->second == 0) {
        predicate_counts_.erase(count);
      }
      it = by_subject_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = by_object_.begin(); it != by_object_.end();) {
    it = it->second.seq <= seq ? by_object_.erase(it) : std::next(it);
  }
}

}  // namespace kg::store
