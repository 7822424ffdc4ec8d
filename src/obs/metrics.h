#ifndef KGRAPH_OBS_METRICS_H_
#define KGRAPH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kg::obs {

// Number of cache-line-padded shards behind every counter/histogram.
// Writers pick a shard from a thread-local slot, so concurrent
// increments from different threads usually land on different cache
// lines; readers sum the shards. Collisions are correct (atomics),
// just slower.
inline constexpr size_t kMetricShards = 16;

// Fixed-point tick used to accumulate histogram sums: 1e-9 of the
// observed unit. Integer accumulation makes the merged sum independent
// of the order shards are combined in, so exposition is bit-identical
// at any thread count (doubles would not associate).
inline constexpr double kFixedPointScale = 1e9;

namespace internal {
/// Thread-local shard slot, assigned round-robin at first use per
/// thread and reused for every metric.
size_t ShardSlot();
}  // namespace internal

/// Monotonic event counter. Inc is a single relaxed fetch_add on a
/// thread-striped cache line — cheap enough for per-query hot paths.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
#ifndef KG_OBS_NOOP
    shards_[internal::ShardSlot()].value.fetch_add(
        n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  /// Sum over shards. Integer addition, so the value is exact and
  /// independent of which thread incremented where.
  uint64_t Value() const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-writer-wins instantaneous value (epoch version, delta size...).
/// Set/Add are single atomics; gauges are written from cold paths.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
#ifndef KG_OBS_NOOP
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void Add(int64_t delta) {
#ifndef KG_OBS_NOOP
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket upper bounds are sorted, inclusive
/// ("le" semantics, Prometheus style), with an implicit +inf overflow
/// bucket. Observe is a branchless-ish binary search plus two relaxed
/// fetch_adds on a thread-striped shard. The sum is accumulated in
/// fixed-point ticks (see kFixedPointScale) so merged exposition is
/// bit-identical regardless of thread count.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value) {
#ifndef KG_OBS_NOOP
    Shard& shard = shards_[internal::ShardSlot()];
    shard.buckets[BucketIndex(value)].fetch_add(1,
                                                std::memory_order_relaxed);
    shard.sum_ticks.fetch_add(ToTicks(value), std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

  /// Merged per-bucket counts (size = upper_bounds()+1; last is the
  /// +inf overflow bucket).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const;
  int64_t SumTicks() const;
  double Sum() const {
    return static_cast<double>(SumTicks()) / kFixedPointScale;
  }

  /// Quantile estimate by linear interpolation inside the bucket that
  /// holds rank q*count. Exact up to bucket resolution: the returned
  /// value lies in the same bucket as the true quantile. Returns 0 on
  /// an empty histogram; values in the overflow bucket clamp to the
  /// last finite bound.
  double Quantile(double q) const;

  void Reset();

  static int64_t ToTicks(double value) {
    return static_cast<int64_t>(std::llround(value * kFixedPointScale));
  }

 private:
  size_t BucketIndex(double value) const;

  struct alignas(64) Shard {
    // Heap array (atomics are not movable, so no vector): one slot per
    // bound plus the +inf overflow bucket, zero-initialized.
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<int64_t> sum_ticks{0};
  };
  std::vector<double> upper_bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Log-spaced bucket bounds: start, start*factor, ... (count bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);
/// The repo-wide latency bucket layout, in microseconds: 0.1us to
/// ~0.13s at 1.25x spacing (64 buckets). Tight enough that a
/// bucket-resolution p99 stays well inside the 2x store budget.
const std::vector<double>& LatencyBucketsUs();

/// Named metric registry. Registration (Get*) takes a mutex and is
/// meant for setup paths; the returned references are stable for the
/// registry's lifetime and are the hot-path handles. Exposition
/// walks metrics in name order, so two registries with the same
/// contents serialize identically.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// Bounds must match across calls for the same name (checked).
  Histogram& GetHistogram(std::string_view name,
                          const std::vector<double>& upper_bounds);

  /// Schema-versioned machine-readable snapshot:
  ///   {"schema_version":1,"counters":{...},"gauges":{...},
  ///    "histograms":{name:{"le":[...],"counts":[...],"count":N,
  ///                        "sum":S,"p50":...,"p99":...}}}
  std::string ToJson() const;

  /// Prometheus text exposition (counter/gauge/histogram families,
  /// names sanitized to [a-z0-9_] with a kg_ prefix).
  std::string ToPrometheus() const;

  /// Zeroes every metric value; registrations and handles survive.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace kg::obs

#endif  // KGRAPH_OBS_METRICS_H_
