#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/json.h"

namespace kg::obs {

namespace internal {

size_t ShardSlot() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Counter

uint64_t Counter::Value() const {
  uint64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.value.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  KG_CHECK(!upper_bounds_.empty()) << "histogram needs at least one bound";
  KG_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()))
      << "histogram bounds must be sorted ascending";
  const size_t n = upper_bounds_.size() + 1;  // +inf overflow bucket
  for (Shard& shard : shards_) {
    shard.buckets = std::make_unique<std::atomic<uint64_t>[]>(n);
  }
}

size_t Histogram::BucketIndex(double value) const {
  // First bound >= value ("le" semantics); past-the-end = overflow.
  auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  return static_cast<size_t>(it - upper_bounds_.begin());
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(upper_bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (uint64_t c : BucketCounts()) total += c;
  return total;
}

int64_t Histogram::SumTicks() const {
  int64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.sum_ticks.load(std::memory_order_relaxed);
  }
  return sum;
}

double Histogram::Quantile(double q) const {
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target) {
      if (i == upper_bounds_.size()) {
        // Overflow bucket: clamp to the last finite bound.
        return upper_bounds_.back();
      }
      const double lo = i == 0 ? 0.0 : upper_bounds_[i - 1];
      const double hi = upper_bounds_[i];
      const double frac =
          std::min(1.0, std::max(0.0, (target - cumulative) /
                                          static_cast<double>(counts[i])));
      return lo + (hi - lo) * frac;
    }
    cumulative = next;
  }
  return upper_bounds_.back();
}

void Histogram::Reset() {
  const size_t n = upper_bounds_.size() + 1;
  for (Shard& shard : shards_) {
    for (size_t i = 0; i < n; ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
    shard.sum_ticks.store(0, std::memory_order_relaxed);
  }
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  KG_CHECK(start > 0.0 && factor > 1.0 && count > 0)
      << "ExponentialBuckets needs start>0, factor>1, count>0";
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double> buckets =
      ExponentialBuckets(0.1, 1.25, 64);
  return buckets;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(
    std::string_view name, const std::vector<double>& upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  } else {
    KG_CHECK(it->second->upper_bounds() == upper_bounds)
        << "histogram '" << std::string(name)
        << "' re-registered with different bounds";
  }
  return *it->second;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name).UInt(counter->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Key(name).Int(gauge->Value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, hist] : histograms_) {
    w.Key(name).BeginObject();
    w.Key("le").BeginArray();
    for (double bound : hist->upper_bounds()) w.Double(bound, 6);
    w.EndArray();
    w.Key("counts").BeginArray();
    for (uint64_t c : hist->BucketCounts()) w.UInt(c);
    w.EndArray();
    w.Key("count").UInt(hist->Count());
    w.Key("sum").Double(hist->Sum(), 6);
    w.Key("p50").Double(hist->Quantile(0.50), 6);
    w.Key("p99").Double(hist->Quantile(0.99), 6);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

namespace {

std::string PromName(const std::string& name) {
  std::string out = "kg_";
  out.reserve(name.size() + 3);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else {
      out += ok ? c : '_';
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + std::to_string(gauge->Value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " histogram\n";
    const std::vector<uint64_t> counts = hist->BucketCounts();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < hist->upper_bounds().size(); ++i) {
      cumulative += counts[i];
      out += prom + "_bucket{le=\"" +
             FormatDouble(hist->upper_bounds()[i], 6) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += counts.back();
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += prom + "_sum " + FormatDouble(hist->Sum(), 6) + "\n";
    out += prom + "_count " + std::to_string(cumulative) + "\n";
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace kg::obs
