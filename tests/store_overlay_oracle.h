// The definition of an epoch's id-space overlay (StoreEpoch::overlay),
// computed from scratch off its (base, delta) and written apart from the
// store's own resolution, so the store suites can check the runs and the
// gate a commit extends, a fold rebuilds and a WAL reopen publishes.

#ifndef KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_
#define KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_

#include <algorithm>
#include <tuple>
#include <vector>

#include "serve/snapshot.h"
#include "store/mem_delta.h"
#include "store/versioned_store.h"

namespace kg::store {

/// Per delta entry whose three parts the base names: a retracted base
/// triple, or an upsert the base lacks, in both runs; per entry with a
/// part the base lacks: its base endpoints, in the gate.
inline OverlayRuns RecomputedOverlay(const StoreEpoch& epoch) {
  const serve::KgSnapshot& base = *epoch.base;
  OverlayRuns runs;
  epoch.delta->ForEach([&](const TripleName& t, const MemDelta::Entry& e) {
    const auto s = base.FindNode(t.subject, t.subject_kind);
    const auto p = base.FindPredicate(t.predicate);
    const auto o = base.FindNode(t.object, t.object_kind);
    if (!s.ok() || !p.ok() || !o.ok()) {
      if (s.ok()) runs.gate.push_back(*s);
      if (o.ok()) runs.gate.push_back(*o);
      return;
    }
    const bool in_base = base.HasTriple(*s, *p, *o);
    const bool upserted = e.state == MemDelta::State::kUpserted;
    if (upserted == in_base) return;  // the base already agrees
    runs.out.push_back(OverlayEdge{*s, *p, *o, upserted});
    runs.in.push_back(OverlayEdge{*o, *p, *s, upserted});
  });
  for (std::vector<OverlayEdge>* run : {&runs.out, &runs.in}) {
    std::sort(run->begin(), run->end(),
              [](const OverlayEdge& a, const OverlayEdge& b) {
                return std::tie(a.node, a.predicate, a.far) <
                       std::tie(b.node, b.predicate, b.far);
              });
  }
  std::sort(runs.gate.begin(), runs.gate.end());
  runs.gate.erase(std::unique(runs.gate.begin(), runs.gate.end()),
                  runs.gate.end());
  return runs;
}

}  // namespace kg::store

#endif  // KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_
