#include "graph/paths.h"

#include <gtest/gtest.h>

namespace kg::graph {
namespace {

// A tiny movie graph: p1 directed m1; a1/a2 acted in m1; a1 acted in m2;
// p1 directed m2.
class PathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](const char* s, const char* p, const char* o) {
      kg_.AddTriple(s, p, o, NodeKind::kEntity, NodeKind::kEntity,
                    {"t", 1.0, 0});
    };
    add("m1", "directed_by", "p1");
    add("m2", "directed_by", "p1");
    add("a1", "acted_in", "m1");
    add("a2", "acted_in", "m1");
    add("a1", "acted_in", "m2");
    m1_ = *kg_.FindNode("m1", NodeKind::kEntity);
    m2_ = *kg_.FindNode("m2", NodeKind::kEntity);
    p1_ = *kg_.FindNode("p1", NodeKind::kEntity);
    a1_ = *kg_.FindNode("a1", NodeKind::kEntity);
    a2_ = *kg_.FindNode("a2", NodeKind::kEntity);
    directed_ = *kg_.FindPredicate("directed_by");
    acted_ = *kg_.FindPredicate("acted_in");
  }

  KnowledgeGraph kg_;
  NodeId m1_ = 0, m2_ = 0, p1_ = 0, a1_ = 0, a2_ = 0;
  PredicateId directed_ = 0, acted_ = 0;
};

TEST_F(PathsTest, ShortestPathDirect) {
  const auto path = ShortestPath(kg_, m1_, p1_);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(kg_.triple(path[0]).predicate, directed_);
}

TEST_F(PathsTest, ShortestPathTwoHops) {
  // a2 -> m1 -> p1.
  const auto path = ShortestPath(kg_, a2_, p1_);
  EXPECT_EQ(path.size(), 2u);
}

TEST_F(PathsTest, ShortestPathUnreachable) {
  const NodeId island = kg_.AddNode("island", NodeKind::kEntity);
  EXPECT_TRUE(ShortestPath(kg_, island, p1_).empty());
}

TEST_F(PathsTest, ShortestPathSelfIsEmpty) {
  EXPECT_TRUE(ShortestPath(kg_, m1_, m1_).empty());
}

TEST_F(PathsTest, NeighborhoodRadii) {
  EXPECT_EQ(Neighborhood(kg_, a2_, 0).size(), 1u);
  EXPECT_EQ(Neighborhood(kg_, a2_, 1).size(), 2u);  // +m1.
  // radius 2: m1's neighbors p1, a1 join.
  EXPECT_EQ(Neighborhood(kg_, a2_, 2).size(), 4u);
  EXPECT_EQ(Neighborhood(kg_, a2_, 10).size(), 5u);  // whole component.
}

TEST_F(PathsTest, EnumerateFindsCoStarPath) {
  // a2 -> m1 (acted_in) -> a1 (^acted_in): the "co-star" path.
  RelationPathCounts counts;
  EnumerateRelationPaths(kg_, a2_, a1_, 2, 10000, &counts);
  ASSERT_TRUE(counts.count("acted_in/^acted_in"));
  EXPECT_EQ(counts.at("acted_in/^acted_in").first,
            (RelationPath{{acted_, false}, {acted_, true}}));
}

TEST_F(PathsTest, PathReachProbability) {
  // From a2: acted_in surely reaches m1.
  EXPECT_DOUBLE_EQ(
      PathReachProbability(kg_, a2_, m1_, {{acted_, false}}), 1.0);
  // From a1 (two movies), acted_in reaches m1 with probability 0.5.
  EXPECT_DOUBLE_EQ(
      PathReachProbability(kg_, a1_, m1_, {{acted_, false}}), 0.5);
  // Impossible path.
  EXPECT_DOUBLE_EQ(
      PathReachProbability(kg_, a1_, p1_, {{directed_, false}}), 0.0);
  // Two-step: acted_in then directed_by reaches p1 with probability 1.
  EXPECT_DOUBLE_EQ(PathReachProbability(
                       kg_, a2_, p1_, {{acted_, false}, {directed_, false}}),
                   1.0);
}

TEST_F(PathsTest, RelationPathToString) {
  RelationPath path = {{acted_, false}, {directed_, true}};
  EXPECT_EQ(RelationPathToString(kg_, path), "acted_in/^directed_by");
}

}  // namespace
}  // namespace kg::graph
