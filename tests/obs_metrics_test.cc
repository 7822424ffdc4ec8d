// Metrics registry semantics: sharded counters sum exactly, histogram
// buckets follow Prometheus "le" semantics with fixed-point sums, and
// exposition (JSON + Prometheus text) is a pure function of metric
// contents — the foundation the determinism suite builds on.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace kg::obs {
namespace {

TEST(CounterTest, IncrementsAndResets) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr size_t kIncs = 10000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (size_t i = 0; i < kIncs; ++i) c.Inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kIncs);
}

TEST(GaugeTest, SetAddReset) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, LeInclusiveBucketsWithOverflow) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) h.Observe(v);
  // "le" semantics: a value equal to a bound lands in that bound's
  // bucket; 5.0 exceeds every bound and lands in +inf.
  EXPECT_EQ(h.BucketCounts(), (std::vector<uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(h.Count(), 6u);
  // 0.5+1+1.5+2+4+5 = 14, exact in fixed-point ticks.
  EXPECT_EQ(h.SumTicks(), static_cast<int64_t>(14.0 * kFixedPointScale));
  EXPECT_DOUBLE_EQ(h.Sum(), 14.0);
}

TEST(HistogramTest, QuantileEdgeCases) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty
  h.Observe(100.0);                        // overflow only
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 4.0);  // clamps to last bound
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  for (int i = 0; i < 100; ++i) h.Observe(0.5);
  // All mass in the first bucket: quantiles stay within (0, 1].
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p99, 0.0);
  EXPECT_LE(p99, 1.0);
}

TEST(HistogramTest, ExponentialBucketsAndRepoLatencyLayout) {
  EXPECT_EQ(ExponentialBuckets(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const std::vector<double>& latency = LatencyBucketsUs();
  ASSERT_EQ(latency.size(), 64u);
  EXPECT_DOUBLE_EQ(latency.front(), 0.1);
  for (size_t i = 1; i < latency.size(); ++i) {
    EXPECT_LT(latency[i - 1], latency[i]);
  }
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  Counter& c1 = registry.GetCounter("a.b");
  Counter& c2 = registry.GetCounter("a.b");
  EXPECT_EQ(&c1, &c2);
  Gauge& g1 = registry.GetGauge("a.b");  // separate namespace from counters
  EXPECT_EQ(&g1, &registry.GetGauge("a.b"));
  Histogram& h1 = registry.GetHistogram("h", {1.0, 2.0});
  EXPECT_EQ(&h1, &registry.GetHistogram("h", {1.0, 2.0}));
}

TEST(MetricsRegistryTest, JsonExpositionShape) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  MetricsRegistry registry;
  registry.GetCounter("reqs").Inc(3);
  registry.GetGauge("epoch").Set(-2);
  Histogram& h = registry.GetHistogram("lat", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);

  const auto parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& v = *parsed;
  EXPECT_DOUBLE_EQ(v.Find("schema_version")->number, 1.0);
  EXPECT_DOUBLE_EQ(v.Find("counters")->Find("reqs")->number, 3.0);
  EXPECT_DOUBLE_EQ(v.Find("gauges")->Find("epoch")->number, -2.0);
  const JsonValue* lat = v.Find("histograms")->Find("lat");
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->Find("le")->array.size(), 2u);
  ASSERT_EQ(lat->Find("counts")->array.size(), 3u);  // bounds + overflow
  EXPECT_DOUBLE_EQ(lat->Find("counts")->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(lat->Find("counts")->array[1].number, 1.0);
  EXPECT_DOUBLE_EQ(lat->Find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(lat->Find("sum")->number, 2.0);
  EXPECT_NE(lat->Find("p50"), nullptr);
  EXPECT_NE(lat->Find("p99"), nullptr);
}

TEST(MetricsRegistryTest, EqualContentsSerializeIdentically) {
  // Registration order differs; exposition is name-ordered, so the two
  // registries must render byte-identical JSON and Prometheus text.
  MetricsRegistry a, b;
  a.GetCounter("x").Inc(5);
  a.GetGauge("y").Set(7);
  a.GetHistogram("z", {1.0}).Observe(0.5);
  b.GetHistogram("z", {1.0}).Observe(0.5);
  b.GetGauge("y").Set(7);
  b.GetCounter("x").Inc(5);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_EQ(a.ToPrometheus(), b.ToPrometheus());
}

TEST(MetricsRegistryTest, PrometheusSanitizesNamesAndEmitsFamilies) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  MetricsRegistry registry;
  registry.GetCounter("serve.queries.point-lookup").Inc(2);
  registry.GetGauge("store.epoch.version").Set(4);
  registry.GetHistogram("serve.latency_us", {1.0, 2.0}).Observe(1.5);
  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# TYPE kg_serve_queries_point_lookup counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("kg_serve_queries_point_lookup 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kg_store_epoch_version gauge"),
            std::string::npos);
  EXPECT_NE(text.find("kg_serve_latency_us_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("kg_serve_latency_us_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c");
  Histogram& h = registry.GetHistogram("h", {1.0});
  c.Inc(9);
  h.Observe(0.5);
  registry.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  // Handles survive and the names still expose.
  c.Inc();
  EXPECT_EQ(registry.GetCounter("c").Value(), 1u);
  EXPECT_NE(registry.ToJson().find("\"c\":1"), std::string::npos);
}

}  // namespace
}  // namespace kg::obs
