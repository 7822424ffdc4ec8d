// The definition of an epoch's id-space overlay (StoreEpoch::overlay),
// computed from scratch off its (base, delta) and written apart from the
// store's own resolution, so the store suites can check the runs and the
// gate a commit extends, a fold rebuilds and a WAL reopen publishes.
// Also the suites' batch read: a workload answered over one pinned epoch.

#ifndef KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_
#define KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/exec_policy.h"
#include "serve/query_engine.h"
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
    const serve::NodeId s = base.FindNode(t.subject, t.subject_kind);
    const serve::PredicateId p = base.FindPredicate(t.predicate);
    const serve::NodeId o = base.FindNode(t.object, t.object_kind);
    if (s == serve::kInvalidNode || p == serve::kInvalidNode ||
        o == serve::kInvalidNode) {
      if (s != serve::kInvalidNode) runs.gate.push_back(s);
      if (o != serve::kInvalidNode) runs.gate.push_back(o);
      return;
    }
    const bool in_base = base.HasTriple(s, p, o);
    const bool upserted = e.state == MemDelta::State::kUpserted;
    if (upserted == in_base) return;  // the base already agrees
    runs.out.push_back(OverlayEdge{s, p, o, upserted});
    runs.in.push_back(OverlayEdge{o, p, s, upserted});
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

/// Answers `queries[i]` into slot i over one pinned epoch, sharded by
/// `exec` with index-addressed slots, so the answers are a pure function
/// of (epoch, queries) at any thread count.
inline std::vector<serve::QueryResult> ExecuteBatch(
    const VersionedKgStore& store, const std::vector<serve::Query>& queries,
    const ExecPolicy& exec) {
  const std::shared_ptr<const StoreEpoch> epoch = store.PinEpoch();
  std::vector<serve::QueryResult> results(queries.size());
  ParallelForChunked(exec, queries.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = store.ExecuteAt(*epoch, queries[i]);
    }
  });
  return results;
}

}  // namespace kg::store

#endif  // KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_
