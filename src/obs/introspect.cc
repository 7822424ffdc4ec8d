#include "obs/introspect.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/trace.h"

namespace kg::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kAdmission:
      return "admission";
    case Stage::kDecode:
      return "decode";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kEngineExecute:
      return "engine_execute";
    case Stage::kCacheProbe:
      return "cache_probe";
    case Stage::kWalAppend:
      return "wal_append";
    case Stage::kOverlayMerge:
      return "overlay_merge";
    case Stage::kFanout:
      return "fanout";
  }
  return "unknown";
}

Histogram& StageHistogram(MetricsRegistry& registry, Stage stage) {
  return registry.GetHistogram(std::string("stage_us.") + StageName(stage),
                               LatencyBucketsUs());
}

Histogram& StageHistogram(MetricsRegistry& registry, Stage stage,
                          std::string_view query_class) {
  std::string name = "stage_us.";
  name += StageName(stage);
  name += '.';
  name += query_class;
  return registry.GetHistogram(name, LatencyBucketsUs());
}

// ---------------------------------------------------------------------------
// SlowQueryRing

namespace {

/// Retention order: longest first; ties broken by the deterministic
/// identity fields so retention never depends on arrival order.
bool Worse(const SlowQuery& a, const SlowQuery& b) {
  if (a.duration_ticks != b.duration_ticks) {
    return a.duration_ticks > b.duration_ticks;
  }
  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
  return a.seq < b.seq;
}

}  // namespace

SlowQueryRing::SlowQueryRing(size_t capacity, double threshold_us)
    : capacity_(capacity),
      threshold_us_(threshold_us),
      threshold_ticks_(Histogram::ToTicks(threshold_us)) {}

void SlowQueryRing::Offer(SlowQuery query) {
#ifdef KG_OBS_NOOP
  (void)query;
#else
  if (capacity_ == 0 || query.duration_ticks < threshold_ticks_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (worst_.size() == capacity_ && !Worse(query, worst_.back())) return;
  const auto pos =
      std::upper_bound(worst_.begin(), worst_.end(), query, Worse);
  worst_.insert(pos, std::move(query));
  if (worst_.size() > capacity_) worst_.pop_back();
#endif
}

size_t SlowQueryRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return worst_.size();
}

std::vector<SlowQuery> SlowQueryRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return worst_;
}

std::string SlowQueryRing::ToJson() const {
  const std::vector<SlowQuery> entries = Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("capacity").UInt(static_cast<uint64_t>(capacity_));
  w.Key("threshold_us").Double(threshold_us_, 3);
  w.Key("count").UInt(static_cast<uint64_t>(entries.size()));
  w.Key("slow_queries").BeginArray();
  for (const SlowQuery& q : entries) {
    w.BeginObject();
    w.Key("trace_id").String(HexSpanId(q.trace_id));
    w.Key("root_span_id").String(HexSpanId(q.root_span_id));
    w.Key("class").String(q.query_class);
    w.Key("duration_us")
        .Double(static_cast<double>(q.duration_ticks) / kFixedPointScale, 3);
    w.Key("seq").UInt(q.seq);
    w.Key("stages_us").BeginObject();
    for (const auto& [stage, ticks] : q.stage_ticks) {
      w.Key(StageName(stage))
          .Double(static_cast<double>(ticks) / kFixedPointScale, 3);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace kg::obs
