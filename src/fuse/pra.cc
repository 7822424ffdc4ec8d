#include "fuse/pra.h"

#include <algorithm>

#include "common/logging.h"
#include "ml/dataset.h"

namespace kg::fuse {

void PraModel::Fit(const graph::KnowledgeGraph& kg,
                   graph::PredicateId predicate, const Options& options,
                   Rng& rng) {
  predicate_ = predicate;
  const auto positives = kg.TriplesWithPredicate(predicate);
  KG_CHECK(!positives.empty()) << "no positive triples for PRA";

  // Mine candidate paths from a sample of positive pairs.
  graph::RelationPathCounts counts;
  const size_t sample = std::min<size_t>(positives.size(), 50);
  for (size_t i = 0; i < sample; ++i) {
    const graph::Triple& t = kg.triple(positives[rng.UniformIndex(
        positives.size())]);
    graph::EnumerateRelationPaths(kg, t.subject, t.object,
                                  options.max_path_length, 4000, &counts);
  }
  // Drop the target predicate's own direct edge (label leakage).
  std::vector<std::pair<int, std::string>> ranked;
  for (const auto& [key, entry] : counts) {
    const auto& path = entry.first;
    if (path.size() == 1 && path[0].predicate == predicate &&
        !path[0].inverse) {
      continue;
    }
    ranked.emplace_back(entry.second, key);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  paths_.clear();
  for (size_t i = 0; i < std::min(options.max_paths, ranked.size()); ++i) {
    paths_.push_back(counts[ranked[i].second].first);
  }
  KG_CHECK(!paths_.empty()) << "no feature paths mined";

  // Build the training set: positives + corrupted negatives.
  std::vector<graph::NodeId> all_objects;
  for (graph::TripleId tid : positives) {
    all_objects.push_back(kg.triple(tid).object);
  }
  ml::Dataset data;
  for (graph::TripleId tid : positives) {
    const graph::Triple& t = kg.triple(tid);
    data.examples.push_back(
        ml::Example{PairFeatures(kg, t.subject, t.object), 1});
    for (size_t n = 0; n < options.negatives_per_positive; ++n) {
      const graph::NodeId wrong =
          all_objects[rng.UniformIndex(all_objects.size())];
      if (kg.HasTriple(t.subject, predicate, wrong)) continue;
      data.examples.push_back(
          ml::Example{PairFeatures(kg, t.subject, wrong), 0});
    }
  }
  data.feature_names.resize(paths_.size());
  lr_.Fit(data, options.lr, rng);
  trained_ = true;
}

ml::FeatureVector PraModel::PairFeatures(const graph::KnowledgeGraph& kg,
                                         graph::NodeId s,
                                         graph::NodeId o) const {
  // Leave-one-out: the (s, predicate, o) edge itself, when present, must
  // not contribute to its own features.
  const graph::Triple excluded{s, predicate_, o};
  ml::FeatureVector f;
  f.reserve(paths_.size());
  for (const graph::RelationPath& path : paths_) {
    f.push_back(graph::PathReachProbability(kg, s, o, path, &excluded));
  }
  return f;
}

double PraModel::Score(const graph::KnowledgeGraph& kg, graph::NodeId s,
                       graph::NodeId o) const {
  KG_CHECK(trained_) << "Score before Fit";
  return lr_.PredictProba(PairFeatures(kg, s, o));
}

}  // namespace kg::fuse
