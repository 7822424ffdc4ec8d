// HNSW index contract tests: deterministic seeded construction (equal
// inputs answer every stored vector's query alike) and search/brute-force
// agreement on small sets.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "ann/hnsw.h"
#include "common/rng.h"

namespace kg::ann {
namespace {

std::vector<float> RandomVectors(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n * dim);
  for (float& v : out) {
    v = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  }
  return out;
}

/// Every stored vector's top 10 at a beam of 10: narrow enough that the
/// answers depend on the graph as well as on the vectors.
std::vector<std::vector<Neighbor>> AnswersForEveryVector(
    const HnswIndex& index) {
  std::vector<std::vector<Neighbor>> answers;
  for (uint32_t id = 0; id < index.size(); ++id) {
    answers.push_back(index.Search(index.vector(id), 10, 10));
  }
  return answers;
}

HnswOptions SmallOptions(size_t dim) {
  HnswOptions o;
  o.dim = dim;
  o.M = 8;
  o.ef_construction = 64;
  o.ef_search = 48;
  o.seed = 17;
  return o;
}

TEST(AnnIndexTest, EmptyIndex) {
  HnswIndex index = HnswIndex::Build({}, SmallOptions(4));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.Search(std::vector<float>(4, 0.0f), 5).empty());
  EXPECT_TRUE(index.BruteForce(std::vector<float>(4, 0.0f), 5).empty());
}

TEST(AnnIndexTest, SingleVector) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  HnswIndex index = HnswIndex::Build(v, SmallOptions(4));
  ASSERT_EQ(index.size(), 1u);

  auto hits = index.Search(v, 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_FLOAT_EQ(hits[0].dist, 0.0f);

  // vector() is clamped, never UB.
  EXPECT_EQ(index.vector(0).size(), 4u);
  EXPECT_TRUE(index.vector(1).empty());
  EXPECT_TRUE(index.vector(123456).empty());
}

TEST(AnnIndexTest, ExactNearestOnSmallSet) {
  // With ef >= n, layer-0 beam search degenerates to exhaustive search,
  // so HNSW must agree with brute force exactly (ids and distances).
  const size_t kN = 64, kDim = 8;
  HnswOptions options = SmallOptions(kDim);
  options.ef_search = kN;
  HnswIndex index = HnswIndex::Build(RandomVectors(kN, kDim, 3), options);

  Rng rng(99);
  for (int q = 0; q < 20; ++q) {
    std::vector<float> query(kDim);
    for (float& v : query) {
      v = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
    }
    EXPECT_EQ(index.Search(query, 10), index.BruteForce(query, 10));
  }
}

TEST(AnnIndexTest, ResultsOrderedByDistThenId) {
  // Duplicate vectors force distance ties; (dist, id) must break them.
  std::vector<float> vectors;
  for (int i = 0; i < 8; ++i) {
    vectors.push_back(1.0f);
    vectors.push_back(2.0f);
  }
  HnswOptions options = SmallOptions(2);
  options.ef_search = 16;
  HnswIndex index = HnswIndex::Build(vectors, options);
  auto hits = index.Search(std::vector<float>{1.0f, 2.0f}, 8);
  ASSERT_EQ(hits.size(), 8u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].id, static_cast<uint32_t>(i));
    EXPECT_FLOAT_EQ(hits[i].dist, 0.0f);
  }
}

TEST(AnnIndexTest, BuildIsDeterministic) {
  const auto vectors = RandomVectors(300, 16, 7);
  HnswOptions options = SmallOptions(16);
  const auto a = AnswersForEveryVector(HnswIndex::Build(vectors, options));
  const auto b = AnswersForEveryVector(HnswIndex::Build(vectors, options));
  ASSERT_EQ(a.size(), 300u);
  EXPECT_EQ(a, b) << "equal inputs must build the same graph";

  // A different seed redraws levels: almost surely a different graph,
  // which a beam this narrow answers differently somewhere.
  options.seed = 18;
  const auto c = AnswersForEveryVector(HnswIndex::Build(vectors, options));
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace kg::ann
