#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "common/table_printer.h"
#include "obs/json.h"

namespace kg::serve {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest sample covering fraction q of the mass.
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

ServeStats::ServeStats() {
  const std::vector<double>& buckets = obs::LatencyBucketsUs();
  for (size_t i = 0; i < kNumQueryKinds; ++i) {
    per_kind_us_[i] = &registry_.GetHistogram(
        std::string("serve.latency_us.") +
            QueryKindName(static_cast<QueryKind>(i)),
        buckets);
  }
  all_us_ = &registry_.GetHistogram("serve.latency_us.all", buckets);
}

void ServeStats::Record(QueryKind kind, double seconds) {
  const double us = seconds * 1e6;
  per_kind_us_[static_cast<size_t>(kind)]->Observe(us);
  all_us_->Observe(us);
}

void ServeStats::SetCacheCounters(
    const ShardedLruCache::Counters& counters) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_ = counters;
  }
  registry_.GetGauge("serve.cache.hits")
      .Set(static_cast<int64_t>(counters.hits));
  registry_.GetGauge("serve.cache.misses")
      .Set(static_cast<int64_t>(counters.misses));
  registry_.GetGauge("serve.cache.evictions")
      .Set(static_cast<int64_t>(counters.evictions));
}

namespace {

ServeStats::Row MakeRow(const std::string& name,
                        const obs::Histogram& hist) {
  ServeStats::Row row;
  row.query_class = name;
  row.calls = hist.Count();
  row.total_seconds = hist.Sum() * 1e-6;  // histogram unit is us
  row.qps = row.total_seconds > 0.0
                ? static_cast<double>(row.calls) / row.total_seconds
                : 0.0;
  row.p50_us = hist.Quantile(0.50);
  row.p99_us = hist.Quantile(0.99);
  return row;
}

void WriteJsonRow(obs::JsonWriter& w, const ServeStats::Row& row) {
  w.BeginObject();
  w.Key("class").String(row.query_class);
  w.Key("calls").UInt(static_cast<uint64_t>(row.calls));
  w.Key("qps").Double(row.qps, 1);
  w.Key("p50_us").Double(row.p50_us, 3);
  w.Key("p99_us").Double(row.p99_us, 3);
  w.EndObject();
}

}  // namespace

std::vector<ServeStats::Row> ServeStats::rows() const {
  std::vector<Row> out;
  for (size_t i = 0; i < kNumQueryKinds; ++i) {
    if (per_kind_us_[i]->Count() == 0) continue;
    out.push_back(MakeRow(QueryKindName(static_cast<QueryKind>(i)),
                          *per_kind_us_[i]));
  }
  out.push_back(MakeRow("all", *all_us_));
  return out;
}

std::optional<ShardedLruCache::Counters> ServeStats::cache_counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_;
}

void ServeStats::Print(std::ostream& os) const {
  TablePrinter table({"query class", "calls", "qps", "p50 us", "p99 us"});
  for (const Row& row : rows()) {
    table.AddRow({row.query_class, FormatCount(static_cast<int64_t>(row.calls)),
                  FormatDouble(row.qps, 0), FormatDouble(row.p50_us, 2),
                  FormatDouble(row.p99_us, 2)});
  }
  table.Print(os);
  if (const auto cache = cache_counters()) {
    os << "cache: " << cache->hits << " hits, " << cache->misses
       << " misses, " << cache->evictions << " evictions (hit rate "
       << FormatDouble(cache->HitRate(), 3) << ")\n";
  }
}

std::string ServeStats::ToJson() const {
  const auto all_rows = rows();
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("classes").BeginArray();
  for (const Row& row : all_rows) {
    if (row.query_class == "all") continue;
    WriteJsonRow(w, row);
  }
  w.EndArray();
  w.Key("overall");
  WriteJsonRow(w, all_rows.back());
  if (const auto cache = cache_counters()) {
    w.Key("cache").BeginObject();
    w.Key("hits").UInt(cache->hits);
    w.Key("misses").UInt(cache->misses);
    w.Key("evictions").UInt(cache->evictions);
    w.Key("hit_rate").Double(cache->HitRate(), 4);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

}  // namespace kg::serve
