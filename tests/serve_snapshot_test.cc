#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "serve/snapshot_binary.h"

namespace kg::serve {
namespace {

using graph::NodeKind;
using graph::Provenance;

const Provenance kProv{"test", 1.0, 0};

// A small KG with every node kind, a text-valued attribute, a removed
// triple, and an isolated node (interned but never asserted).
graph::KnowledgeGraph SampleKg() {
  graph::KnowledgeGraph kg;
  kg.AddTriple("m1", "title", "The Harbor", NodeKind::kEntity,
               NodeKind::kText, kProv);
  kg.AddTriple("m1", "directed_by", "ada", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("m2", "directed_by", "ada", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("ada", "acted_in", "m2", NodeKind::kEntity,
               NodeKind::kEntity, kProv);
  kg.AddTriple("m1", "type", "Movie", NodeKind::kEntity, NodeKind::kClass,
               kProv);
  const graph::TripleId doomed =
      kg.AddTriple("m1", "title", "Wrong Title", NodeKind::kEntity,
                   NodeKind::kText, kProv);
  kg.RemoveTriple(doomed);
  kg.AddNode("isolated", NodeKind::kEntity);
  return kg;
}

TEST(SnapshotTest, CompileCompactsToLiveVocabulary) {
  const auto kg = SampleKg();
  const KgSnapshot snap = KgSnapshot::Compile(kg);
  EXPECT_EQ(snap.num_triples(), kg.num_triples());
  // "Wrong Title" (only in a tombstone) and "isolated" are compiled out.
  EXPECT_EQ(snap.num_nodes(), 5u);  // m1, m2, ada, "The Harbor", Movie.
  EXPECT_EQ(snap.num_predicates(), 4u);
  EXPECT_FALSE(snap.FindNode("isolated", NodeKind::kEntity).ok());
  EXPECT_FALSE(snap.FindNode("Wrong Title", NodeKind::kText).ok());
  EXPECT_TRUE(snap.FindNode("The Harbor", NodeKind::kText).ok());
}

TEST(SnapshotTest, LookupsMatchSourceGraph) {
  const auto kg = SampleKg();
  const KgSnapshot snap = KgSnapshot::Compile(kg);

  const NodeId m1 = *snap.FindNode("m1", NodeKind::kEntity);
  const NodeId ada = *snap.FindNode("ada", NodeKind::kEntity);
  const PredicateId directed = *snap.FindPredicate("directed_by");

  const auto objs = snap.Objects(m1, directed);
  ASSERT_EQ(objs.size(), 1u);
  EXPECT_EQ(snap.NodeName(objs[0]), "ada");
  EXPECT_EQ(snap.NodeKindOf(objs[0]), NodeKind::kEntity);

  // Subjects of (?, directed_by, ada): one run of ada's in-edges.
  std::vector<std::string> names;
  for (const KgSnapshot::Edge& e : snap.InEdges(ada)) {
    if (e.first == directed) names.emplace_back(snap.NodeName(e.second));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"m1", "m2"}));

  EXPECT_TRUE(snap.HasTriple(m1, directed, ada));
  EXPECT_FALSE(snap.HasTriple(ada, directed, m1));

  // Removed triples are not served.
  const PredicateId title = *snap.FindPredicate("title");
  EXPECT_EQ(snap.Objects(m1, title).size(), 1u);

  // Degrees cover both directions.
  EXPECT_EQ(snap.OutDegree(m1), 3u);
  EXPECT_EQ(snap.InDegree(ada), 2u);
}

TEST(SnapshotTest, EdgeSpansAreSorted) {
  Rng rng(7);
  graph::KnowledgeGraph kg;
  for (int i = 0; i < 200; ++i) {
    kg.AddTriple("s" + std::to_string(rng.UniformInt(0, 20)),
                 "p" + std::to_string(rng.UniformInt(0, 5)),
                 "o" + std::to_string(rng.UniformInt(0, 40)),
                 NodeKind::kEntity, NodeKind::kEntity, kProv);
  }
  const KgSnapshot snap = KgSnapshot::Compile(kg);
  const auto sorted_pairs = [](const KgSnapshot::EdgeRange& range) {
    const std::vector<KgSnapshot::Edge> edges(range.begin(), range.end());
    return std::is_sorted(edges.begin(), edges.end(),
                          [](const auto& a, const auto& b) {
                            return a.first != b.first
                                       ? a.first < b.first
                                       : a.second < b.second;
                          });
  };
  std::vector<uint64_t> per_predicate(snap.num_predicates(), 0);
  for (NodeId n = 0; n < snap.num_nodes(); ++n) {
    EXPECT_TRUE(sorted_pairs(snap.OutEdges(n)));
    EXPECT_TRUE(sorted_pairs(snap.InEdges(n)));
    for (const KgSnapshot::Edge& e : snap.OutEdges(n)) ++per_predicate[e.first];
  }
  for (PredicateId p = 0; p < snap.num_predicates(); ++p) {
    EXPECT_EQ(snap.PredicateTripleCount(p), per_predicate[p]) << p;
  }
}

TEST(SnapshotTest, FingerprintIgnoresInsertionOrder) {
  struct Spo {
    const char* s;
    const char* p;
    const char* o;
  };
  const std::vector<Spo> triples = {
      {"a", "knows", "b"}, {"b", "knows", "c"}, {"c", "knows", "a"},
      {"a", "likes", "b"}, {"d", "knows", "a"},
  };
  graph::KnowledgeGraph forward;
  for (const auto& t : triples) {
    forward.AddTriple(t.s, t.p, t.o, NodeKind::kEntity, NodeKind::kEntity,
                      kProv);
  }
  graph::KnowledgeGraph backward;
  for (auto it = triples.rbegin(); it != triples.rend(); ++it) {
    backward.AddTriple(it->s, it->p, it->o, NodeKind::kEntity,
                       NodeKind::kEntity, kProv);
  }
  const KgSnapshot a = KgSnapshot::Compile(forward);
  const KgSnapshot b = KgSnapshot::Compile(backward);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(SerializeSnapshotBinary(a), SerializeSnapshotBinary(b));
}

TEST(SnapshotTest, FingerprintIsPureFunctionOfLiveTriples) {
  graph::KnowledgeGraph clean;
  clean.AddTriple("x", "p", "y", NodeKind::kEntity, NodeKind::kEntity,
                  kProv);
  graph::KnowledgeGraph dirty;
  dirty.AddNode("junk", NodeKind::kText);
  const auto doomed = dirty.AddTriple(
      "x", "q", "z", NodeKind::kEntity, NodeKind::kEntity, kProv);
  dirty.AddTriple("x", "p", "y", NodeKind::kEntity, NodeKind::kEntity,
                  kProv);
  dirty.RemoveTriple(doomed);
  EXPECT_EQ(KgSnapshot::Compile(clean).Fingerprint(),
            KgSnapshot::Compile(dirty).Fingerprint());
}

TEST(SnapshotTest, OutOfRangeIdsDegradeInsteadOfReading) {
  // Corrupt postings served under BinaryVerify::kHeader can hand any
  // uint32 to these accessors (regression: NodeName used to index the
  // offset table unclamped, and the edge accessors KG_CHECK-aborted).
  const KgSnapshot snap = KgSnapshot::Compile(SampleKg());
  const auto n = static_cast<NodeId>(snap.num_nodes());
  const auto p = static_cast<PredicateId>(snap.num_predicates());
  for (const uint32_t id : {n, n + 1, UINT32_MAX}) {
    EXPECT_EQ(snap.NodeName(id), "");
    EXPECT_EQ(snap.NodeKindOf(id), NodeKind::kEntity);
    EXPECT_TRUE(snap.OutEdges(id).empty());
    EXPECT_TRUE(snap.InEdges(id).empty());
  }
  for (const uint32_t id : {p, p + 1, UINT32_MAX}) {
    EXPECT_EQ(snap.PredicateName(id), "");
    EXPECT_EQ(snap.PredicateTripleCount(id), 0u);
  }
  // In-range behavior is unchanged.
  EXPECT_NE(snap.NodeName(0), "");
  EXPECT_FALSE(snap.OutEdges(0).empty() && snap.InEdges(0).empty());
}

TEST(SnapshotTest, EmptyGraphCompiles) {
  graph::KnowledgeGraph kg;
  const KgSnapshot snap = KgSnapshot::Compile(kg);
  EXPECT_EQ(snap.num_nodes(), 0u);
  EXPECT_EQ(snap.num_triples(), 0u);
  const auto loaded = DeserializeSnapshotBinary(SerializeSnapshotBinary(snap));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Fingerprint(), snap.Fingerprint());
}

}  // namespace
}  // namespace kg::serve
