#ifndef KGRAPH_SERVE_SERVE_STATS_H_
#define KGRAPH_SERVE_SERVE_STATS_H_

#include <array>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/lru_cache.h"
#include "serve/query_engine.h"

namespace kg::serve {

/// Nearest-rank percentile of `samples` (q in [0, 1]); 0 when empty.
/// Sorts a copy, so callers keep their sample order.
double Percentile(std::vector<double> samples, double q);

/// Per-query-class latency/throughput aggregation for a serving replay,
/// plus the result-cache counters, rendered as a `table_printer` report
/// and as machine-readable JSON (the BENCH_serve.json payload).
///
/// Historically this kept raw per-class sample vectors; it is now a
/// thin view over an obs::MetricsRegistry — each class records into a
/// "serve.latency_us.<class>" histogram (fixed log-spaced buckets,
/// LatencyBucketsUs) plus a "serve.latency_us.all" aggregate, and
/// cache counters land in "serve.cache.*" gauges. Percentiles are
/// therefore bucket-resolution estimates (1.25x spacing), unbounded
/// memory per run becomes ~KBs, and recording is lock-free. Reading is
/// meant for after the run.
class ServeStats {
 public:
  struct Row {
    std::string query_class;
    size_t calls = 0;
    double total_seconds = 0.0;
    double qps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
  };

  /// Records into a registry of its own.
  ServeStats();

  /// Adds one query's wall time to its class.
  void Record(QueryKind kind, double seconds);

  /// Attaches the replay's cache counters to the report (and mirrors
  /// them into serve.cache.{hits,misses,evictions} gauges).
  void SetCacheCounters(const ShardedLruCache::Counters& counters);

  /// Per-class rows (classes with at least one sample, enum order),
  /// followed by an "all" row aggregating every sample.
  std::vector<Row> rows() const;

  std::optional<ShardedLruCache::Counters> cache_counters() const;

  /// Renders the class table and a cache summary line.
  void Print(std::ostream& os) const;

  /// {"classes": [...], "overall": {...}, "cache": {...}} — the
  /// BENCH_serve.json payload (rendered through obs::JsonWriter).
  std::string ToJson() const;

  /// The backing registry.
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  obs::MetricsRegistry registry_;
  std::array<obs::Histogram*, kNumQueryKinds> per_kind_us_{};
  obs::Histogram* all_us_ = nullptr;
  mutable std::mutex mu_;  // guards cache_ only
  std::optional<ShardedLruCache::Counters> cache_;
};

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_SERVE_STATS_H_
