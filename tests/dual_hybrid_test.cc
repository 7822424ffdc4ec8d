// HybridAnswerer + KgEmbeddingSpace contract tests: the symbolic route
// answers exactly like KgAnswerer, the ANN route only fires when the
// symbolic path has no edge to follow, unknown subjects abstain, the
// hybrid never scores below symbolic-only on a shared workload, and the
// embedding space is a pure function of (graph, options).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dual/answerers.h"
#include "dual/kg_embedding.h"
#include "dual/qa_eval.h"
#include "graph/knowledge_graph.h"
#include "synth/entity_universe.h"
#include "synth/qa_generator.h"

namespace kg::dual {
namespace {

using graph::KnowledgeGraph;

synth::EntityUniverse SmallUniverse(uint64_t seed) {
  synth::UniverseOptions uo;
  uo.num_people = 50;
  uo.num_movies = 30;
  uo.num_songs = 20;
  Rng rng(seed);
  return synth::EntityUniverse::Generate(uo, rng);
}

KgEmbeddingOptions FastOptions(uint64_t seed) {
  KgEmbeddingOptions options;
  options.transe.dim = 16;
  options.transe.epochs = 40;
  options.seed = seed;
  return options;
}

std::vector<synth::QaItem> Workload(const synth::EntityUniverse& universe,
                                    uint64_t seed, size_t n) {
  synth::QaOptions qo;
  qo.num_questions = n;
  Rng rng(seed);
  return synth::GenerateQaWorkload(universe, qo, rng);
}

TEST(DualHybridTest, SymbolicRouteMatchesKgAnswerer) {
  const auto universe = SmallUniverse(1);
  const KnowledgeGraph kg = universe.ToKnowledgeGraph();
  const KgEmbeddingSpace space(kg, FastOptions(1));
  const auto items = Workload(universe, 2, 60);

  KgAnswerer symbolic(kg);
  HybridAnswerer hybrid(kg, space);
  Rng rng(3);
  size_t symbolic_answered = 0;
  for (const synth::QaItem& item : items) {
    const auto want = symbolic.Answer(item, rng);
    if (!want.has_value()) continue;
    ++symbolic_answered;
    const auto got = hybrid.Answer(item, rng);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *want) << item.subject_name << "/" << item.predicate;
    EXPECT_EQ(hybrid.last_route(), HybridAnswerer::Route::kSymbolic);
  }
  ASSERT_GT(symbolic_answered, 0u);
  EXPECT_EQ(hybrid.symbolic_hits(), symbolic_answered);
}

TEST(DualHybridTest, AnnRouteFiresWhenSymbolicHasNoEdge) {
  // A person exists (resolvable subject) but has no directed_by edge,
  // while the predicate itself is in the space — symbolic abstains, the
  // ANN route answers from the learned geometry.
  const auto universe = SmallUniverse(4);
  const KnowledgeGraph kg = universe.ToKnowledgeGraph();
  const KgEmbeddingSpace space(kg, FastOptions(4));

  synth::QaItem item;
  item.subject_name = universe.people()[0].name;
  item.predicate = "directed_by";
  item.gold_object = "";

  Rng rng(5);
  KgAnswerer symbolic(kg);
  ASSERT_EQ(symbolic.Answer(item, rng), std::nullopt)
      << "precondition: the symbolic path must have no edge here";

  HybridAnswerer hybrid(kg, space);
  const auto got = hybrid.Answer(item, rng);
  ASSERT_TRUE(got.has_value()) << "ANN fallback should produce a guess";
  EXPECT_EQ(hybrid.last_route(), HybridAnswerer::Route::kAnn);
  EXPECT_EQ(hybrid.ann_hits(), 1u);
}

TEST(DualHybridTest, UnknownSubjectAbstains) {
  const auto universe = SmallUniverse(6);
  const KnowledgeGraph kg = universe.ToKnowledgeGraph();
  const KgEmbeddingSpace space(kg, FastOptions(6));

  synth::QaItem item;
  item.subject_name = "entity that exists nowhere";
  item.predicate = "birth_year";

  Rng rng(7);
  HybridAnswerer hybrid(kg, space);
  EXPECT_EQ(hybrid.Answer(item, rng), std::nullopt);
  EXPECT_EQ(hybrid.last_route(), HybridAnswerer::Route::kNone);
  EXPECT_EQ(hybrid.abstains(), 1u);
}

TEST(DualHybridTest, HybridNeverScoresBelowSymbolicOnly) {
  // Prune a slice of attribute edges from the served graph while the
  // space keeps the full geometry (the bench's "index lags the stream"
  // shape): hybrid accuracy must be >= symbolic-only accuracy, because
  // the symbolic route is tried first and the ANN route only adds
  // answers where symbolic abstained.
  const auto universe = SmallUniverse(8);
  const KnowledgeGraph full = universe.ToKnowledgeGraph();
  const KgEmbeddingSpace space(full, FastOptions(8));

  KnowledgeGraph pruned = universe.ToKnowledgeGraph();
  const auto pred = pruned.FindPredicate("release_year");
  ASSERT_TRUE(pred.ok());
  size_t removed = 0;
  for (uint32_t id = 0; id < universe.movies().size(); id += 3) {
    const auto node = pruned.FindNode(
        synth::EntityUniverse::MovieNodeName(id), graph::NodeKind::kEntity);
    if (!node.ok()) continue;
    for (graph::TripleId t : pruned.TriplesWithSubject(*node)) {
      if (pruned.triple(t).predicate == *pred) {
        pruned.RemoveTriple(t);
        ++removed;
        break;
      }
    }
  }
  ASSERT_GT(removed, 0u);

  const auto items = Workload(universe, 9, 200);
  KgAnswerer symbolic(pruned);
  HybridAnswerer hybrid(pruned, space);
  Rng rng_a(10), rng_b(10);
  const QaEvaluation kg_only = EvaluateAnswerer(symbolic, items, rng_a);
  const QaEvaluation mixed = EvaluateAnswerer(hybrid, items, rng_b);

  EXPECT_GE(mixed.overall.accuracy, kg_only.overall.accuracy);
  EXPECT_LE(mixed.overall.abstention_rate, kg_only.overall.abstention_rate);
  EXPECT_GT(hybrid.ann_hits(), 0u)
      << "the pruned edges should have routed through the ANN fallback";
}

TEST(DualHybridTest, EmbeddingSpaceIsDeterministic) {
  const auto universe = SmallUniverse(11);
  const KnowledgeGraph kg = universe.ToKnowledgeGraph();
  const KgEmbeddingSpace a(kg, FastOptions(11));
  const KgEmbeddingSpace b(kg, FastOptions(11));

  ASSERT_EQ(a.num_embedded_nodes(), b.num_embedded_nodes());
  ASSERT_GT(a.num_embedded_nodes(), 0u);
  // Equal (graph, options) build equal indexes: the same stored vectors,
  // each answered alike.
  const ann::HnswIndex& ia = a.index();
  const ann::HnswIndex& ib = b.index();
  ASSERT_EQ(ia.size(), ib.size());
  for (uint32_t id = 0; id < ia.size(); ++id) {
    const auto va = ia.vector(id);
    const auto vb = ib.vector(id);
    ASSERT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()))
        << "vector " << id;
    ASSERT_EQ(ia.Search(va, 10), ib.Search(vb, 10)) << "vector " << id;
  }

  const auto items = Workload(universe, 12, 40);
  for (const synth::QaItem& item : items) {
    EXPECT_EQ(a.PredictObject(item.subject_name, item.predicate),
              b.PredictObject(item.subject_name, item.predicate));
  }

  // A different seed trains a different geometry.
  const KgEmbeddingSpace c(kg, FastOptions(12));
  const ann::HnswIndex& ic = c.index();
  bool differs = ic.size() != ia.size();
  for (uint32_t id = 0; !differs && id < ia.size(); ++id) {
    const auto va = ia.vector(id);
    const auto vc = ic.vector(id);
    differs = !std::equal(va.begin(), va.end(), vc.begin(), vc.end());
  }
  EXPECT_TRUE(differs);
}

TEST(DualHybridTest, PredictObjectRepaysTheExactIndexQuery) {
  // EmbeddingQuery exposes the raw query point; searching it by hand
  // must reproduce PredictObject's pick (skipping the subject itself).
  const auto universe = SmallUniverse(13);
  const KnowledgeGraph kg = universe.ToKnowledgeGraph();
  const KgEmbeddingSpace space(kg, FastOptions(13));

  const std::string subject = universe.people()[1].name;
  const auto query = space.EmbeddingQuery(subject, "birth_year");
  ASSERT_TRUE(query.has_value());
  const auto predicted = space.PredictObject(subject, "birth_year");
  ASSERT_TRUE(predicted.has_value());

  for (const ann::Neighbor& hit : space.index().Search(*query, 9)) {
    const std::string& display = space.DisplayOf(hit.id);
    if (display == *predicted) return;  // Found the pick in the beam.
  }
  FAIL() << "PredictObject's answer must come from the ANN beam";
}

}  // namespace
}  // namespace kg::dual
