#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace kg {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, BernoulliFrequencyApproximatesP) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Weighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, SampleIndicesDistinctAndSorted) {
  Rng rng(17);
  const auto sample = rng.SampleIndices(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 30u);
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1], sample[i]);
    EXPECT_LT(sample[i], 100u);
  }
}

TEST(RngTest, SampleIndicesFullRange) {
  Rng rng(19);
  const auto sample = rng.SampleIndices(10, 10);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(23);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  // Different children disagree somewhere in a short window.
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) {
    differ = child1.UniformInt(0, 1 << 30) != child2.UniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(differ);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, PmfSumsToOneAndIsDecreasing) {
  const double s = GetParam();
  ZipfDistribution zipf(200, s);
  double total = 0.0;
  for (size_t r = 0; r < zipf.size(); ++r) {
    total += zipf.Pmf(r);
    if (r > 0) {
      EXPECT_LE(zipf.Pmf(r), zipf.Pmf(r - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(ZipfTest, SampleMatchesHeadMass) {
  const double s = GetParam();
  ZipfDistribution zipf(50, s);
  Rng rng(31);
  const int n = 20000;
  int head = 0;
  for (int i = 0; i < n; ++i) head += zipf.Sample(rng) == 0;
  EXPECT_NEAR(static_cast<double>(head) / n, zipf.Pmf(0), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 2.0));

}  // namespace
}  // namespace kg
