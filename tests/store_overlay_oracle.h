// The definition of an epoch's overlay (StoreEpoch's runs and names),
// recomputed from its base and the mutation log alone, written apart from
// the store's own resolution, so the store suites can check the runs a
// commit extends, a fold's install resolves anew and a WAL reopen
// publishes. The comparison runs in name space, through the epoch's name
// table, so it does not depend on the ids a commit hands out.
// Also the suites' batch read: a workload answered over one pinned epoch.

#ifndef KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_
#define KGRAPH_TESTS_STORE_OVERLAY_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/exec_policy.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "store/wal.h"

namespace kg::store {

/// One overlay entry in names: (subject kind, subject, predicate, object
/// kind, object, added).
using NamedOverlayEntry =
    std::tuple<graph::NodeKind, std::string, std::string, graph::NodeKind,
               std::string, bool>;

/// Checks `epoch`'s overlay against its definition. `log[i]` is the
/// mutation the store numbered i + 1, so the epoch's overlay is the log's
/// mutations (base_seq, seq] at their last op, less those its base
/// already agrees with: every retracted base triple and every upsert the
/// base lacks, in both runs, sorted and transposed; and every name the
/// runs use that the base lacks, once, with an id past the base's that
/// the epoch's lookups return.
inline ::testing::AssertionResult OverlayMatchesLog(
    const StoreEpoch& epoch, std::span<const Mutation> log) {
  const serve::KgSnapshot& base = *epoch.base;
  if (epoch.base_seq > epoch.seq || log.size() < epoch.seq) {
    return ::testing::AssertionFailure()
           << "epoch holds mutations (" << epoch.base_seq << ", "
           << epoch.seq << "] of a " << log.size() << "-mutation log";
  }
  // Last op wins, per triple.
  std::map<std::tuple<graph::NodeKind, std::string, std::string,
                      graph::NodeKind, std::string>,
           bool>
      last;
  for (uint64_t i = epoch.base_seq; i < epoch.seq; ++i) {
    const Mutation& m = log[i];
    last[{m.subject_kind, m.subject, m.predicate, m.object_kind, m.object}] =
        m.op == MutationOp::kUpsert;
  }
  std::vector<NamedOverlayEntry> expected;
  for (const auto& [t, upserted] : last) {
    const auto& [sk, s, p, ok, o] = t;
    const serve::NodeId s_id = base.FindNode(s, sk);
    const serve::PredicateId p_id = base.FindPredicate(p);
    const serve::NodeId o_id = base.FindNode(o, ok);
    const bool in_base = s_id != serve::kInvalidNode &&
                         p_id != serve::kInvalidNode &&
                         o_id != serve::kInvalidNode &&
                         base.HasTriple(s_id, p_id, o_id);
    if (upserted != in_base) expected.emplace_back(sk, s, p, ok, o, upserted);
  }
  std::sort(expected.begin(), expected.end());

  const size_t num_predicates =
      base.num_predicates() + epoch.names->predicates.size();
  std::vector<NamedOverlayEntry> actual;
  for (const OverlayEdge& e : epoch.overlay.out) {
    if (e.node >= epoch.num_nodes() || e.far >= epoch.num_nodes() ||
        e.predicate >= num_predicates) {
      return ::testing::AssertionFailure()
             << "run entry (" << e.node << ", " << e.predicate << ", "
             << e.far << ") has an id past the epoch's";
    }
    actual.emplace_back(epoch.NodeKindOf(e.node), epoch.NodeName(e.node),
                        epoch.PredicateName(e.predicate),
                        epoch.NodeKindOf(e.far), epoch.NodeName(e.far),
                        e.added);
  }
  std::sort(actual.begin(), actual.end());
  if (actual != expected) {
    return ::testing::AssertionFailure()
           << "runs name " << actual.size() << " entries, the log "
           << expected.size();
  }

  const auto key = [](const OverlayEdge& e) {
    return std::tie(e.node, e.predicate, e.far);
  };
  const auto& out = epoch.overlay.out;
  for (size_t i = 1; i < out.size(); ++i) {
    if (!(key(out[i - 1]) < key(out[i]))) {
      return ::testing::AssertionFailure()
             << "out-run not strictly sorted at " << i;
    }
  }
  std::vector<OverlayEdge> transposed;
  for (const OverlayEdge& e : out) {
    transposed.push_back(OverlayEdge{e.far, e.predicate, e.node, e.added});
  }
  std::sort(transposed.begin(), transposed.end(),
            [&](const OverlayEdge& a, const OverlayEdge& b) {
              return key(a) < key(b);
            });
  const auto& in = epoch.overlay.in;
  if (in.size() != transposed.size() ||
      !std::equal(in.begin(), in.end(), transposed.begin(),
                  [&](const OverlayEdge& a, const OverlayEdge& b) {
                    return key(a) == key(b) && a.added == b.added;
                  })) {
    return ::testing::AssertionFailure()
           << "in-run is not the sorted transpose of the out-run";
  }

  const OverlayNames& names = *epoch.names;
  for (size_t i = 0; i < names.nodes.size(); ++i) {
    const auto& [kind, name] = names.nodes[i];
    if (base.FindNode(name, kind) != serve::kInvalidNode ||
        epoch.FindNode(names.nodes[i]) != base.num_nodes() + i) {
      return ::testing::AssertionFailure()
             << "overlay node " << i << " '" << name
             << "' is a base name or does not look itself up";
    }
  }
  for (size_t i = 0; i < names.predicates.size(); ++i) {
    if (base.FindPredicate(names.predicates[i]) != serve::kInvalidNode ||
        epoch.FindPredicate(names.predicates[i]) !=
            base.num_predicates() + i) {
      return ::testing::AssertionFailure()
             << "overlay predicate " << i << " '" << names.predicates[i]
             << "' is a base name or does not look itself up";
    }
  }
  return ::testing::AssertionSuccess();
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
