#ifndef KGRAPH_OBS_INTROSPECT_H_
#define KGRAPH_OBS_INTROSPECT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace kg::obs {

/// The eight stages a served request can spend its time in, across the
/// whole distributed path: connection admission and body decode on the
/// server event loop, worker-queue wait, engine execution, the result
/// cache probe inside the engine, WAL append and overlay merge inside
/// the versioned store's write path, and scatter-gather fan-out/merge
/// wait in the cluster router. Per-stage histograms turn an opaque p99
/// into an attribution ("the 2.3x tail is overlay merge, not fan-out").
enum class Stage : uint8_t {
  kAdmission = 0,
  kDecode = 1,
  kQueueWait = 2,
  kEngineExecute = 3,
  kCacheProbe = 4,
  kWalAppend = 5,
  kOverlayMerge = 6,
  kFanout = 7,
};

inline constexpr size_t kNumStages = 8;

/// Stable lowercase identifier ("admission", "wal_append"...) used in
/// metric names and JSON keys.
const char* StageName(Stage stage);

/// The classless stage histogram "stage_us.<stage>" on the repo-wide
/// latency buckets — for stages that run below the query-class level
/// (WAL append covers a whole batch, not one query class).
Histogram& StageHistogram(MetricsRegistry& registry, Stage stage);

/// The per-class stage histogram "stage_us.<stage>.<class>" — for
/// stages on the per-request path, keyed by serve::QueryKindName.
Histogram& StageHistogram(MetricsRegistry& registry, Stage stage,
                          std::string_view query_class);

/// One retained slow request: identity (trace id + root span id link it
/// to the trace dump), class, total duration, and the per-stage
/// breakdown, all in the histogram layer's fixed-point ticks so two
/// runs that measured the same values render the same bytes.
struct SlowQuery {
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;
  std::string query_class;
  int64_t duration_ticks = 0;  ///< Histogram::ToTicks(duration_us).
  uint64_t seq = 0;            ///< Caller-assigned admission order.
  std::vector<std::pair<Stage, int64_t>> stage_ticks;
};

/// Bounded worst-N retention of slow requests: a deterministic
/// threshold sampler, not a lossy ring — Offer keeps the N worst
/// requests at or above the threshold, ordered by (duration desc,
/// trace_id, seq), so a seeded serial workload fills it identically on
/// every run. Offer is mutex-guarded and cheap in the common case (one
/// compare against the current floor); under KG_OBS_NOOP it compiles
/// to nothing.
class SlowQueryRing {
 public:
  SlowQueryRing(size_t capacity, double threshold_us);

  void Offer(SlowQuery query);

  size_t size() const;
  std::vector<SlowQuery> Snapshot() const;

  /// {"schema_version":1,"capacity":...,"threshold_us":...,
  ///  "count":...,"slow_queries":[...]} — entries in retention order
  /// (worst first), stage breakdowns keyed by StageName.
  std::string ToJson() const;

  size_t capacity() const { return capacity_; }
  double threshold_us() const { return threshold_us_; }

 private:
  size_t capacity_;
  double threshold_us_;
  int64_t threshold_ticks_;
  mutable std::mutex mu_;
  std::vector<SlowQuery> worst_;  // sorted: worst (highest duration) first
};

}  // namespace kg::obs

#endif  // KGRAPH_OBS_INTROSPECT_H_
