#include "ann/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"

namespace kg::ann {
namespace {

// Hard cap on layer draws; with mL = 1/ln(M) the probability of ever
// reaching it is ~M^-32.
constexpr uint8_t kMaxLevelCap = 32;

// (dist, id) is the one total order everything in this file uses: heaps,
// neighbor selection, final results. dist ties are broken by id, so the
// order is total and every traversal is deterministic.
bool Closer(const Neighbor& a, const Neighbor& b) {
  return std::tie(a.dist, a.id) < std::tie(b.dist, b.id);
}

// Max neighbors kept on `layer`.
size_t MaxDegree(const HnswOptions& options, size_t layer) {
  return layer == 0 ? options.M * 2 : options.M;
}

}  // namespace

float HnswIndex::Distance(std::span<const float> a, const float* b) const {
  float sum = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

const std::vector<uint32_t>& HnswIndex::LinksAt(uint32_t node,
                                               size_t layer) const {
  static const std::vector<uint32_t> kEmpty;
  if (node >= links_.size()) return kEmpty;
  const auto& per_node = links_[node];
  if (layer >= per_node.size()) return kEmpty;
  return per_node[layer];
}

std::vector<Neighbor> HnswIndex::SearchLayer(std::span<const float> query,
                                             uint32_t entry, size_t ef,
                                             size_t layer) const {
  // Min-heap of frontier candidates and max-heap of current best `ef`,
  // both ordered by (dist, id).
  auto frontier_cmp = [](const Neighbor& a, const Neighbor& b) {
    return Closer(b, a);  // smallest on top
  };
  auto best_cmp = [](const Neighbor& a, const Neighbor& b) {
    return Closer(a, b);  // largest on top
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>,
                      decltype(frontier_cmp)>
      frontier(frontier_cmp);
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(best_cmp)>
      best(best_cmp);
  std::unordered_set<uint32_t> visited;

  const Neighbor start{
      Distance(query, vectors_.data() +
                          static_cast<size_t>(entry) * options_.dim),
      entry};
  frontier.push(start);
  best.push(start);
  visited.insert(entry);

  while (!frontier.empty()) {
    const Neighbor cur = frontier.top();
    frontier.pop();
    if (best.size() >= ef && Closer(best.top(), cur)) break;
    for (uint32_t next : LinksAt(cur.id, layer)) {
      if (next >= count_ || !visited.insert(next).second) continue;
      const Neighbor cand{
          Distance(query, vectors_.data() +
                              static_cast<size_t>(next) * options_.dim),
          next};
      if (best.size() < ef || Closer(cand, best.top())) {
        frontier.push(cand);
        best.push(cand);
        if (best.size() > ef) best.pop();
      }
    }
  }

  std::vector<Neighbor> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());  // closest first
  return out;
}

HnswIndex HnswIndex::Build(std::vector<float> vectors,
                           const HnswOptions& options) {
  KG_CHECK(options.dim > 0) << "HnswOptions.dim must be positive";
  KG_CHECK(options.M >= 2) << "HnswOptions.M must be >= 2";
  KG_CHECK(vectors.size() % options.dim == 0)
      << "vector blob size " << vectors.size()
      << " is not a multiple of dim " << options.dim;

  HnswIndex index;
  index.options_ = options;
  index.count_ = vectors.size() / options.dim;
  index.vectors_ = std::move(vectors);
  index.levels_.reserve(index.count_);
  index.links_.reserve(index.count_);

  // Level draws are Split(id) off the build seed: a pure function of
  // (seed, id), independent of insertion history.
  const Rng base(options.seed);
  const double ml = 1.0 / std::log(static_cast<double>(options.M));
  const size_t ef_c = std::max(options.ef_construction, options.M + 1);

  for (uint32_t id = 0; id < index.count_; ++id) {
    Rng draw = base.Split(id);
    // UniformDouble() is [0, 1); 1-u is (0, 1] so the log is finite.
    const double u = 1.0 - draw.UniformDouble();
    const int drawn = static_cast<int>(-std::log(u) * ml);
    const uint8_t level = static_cast<uint8_t>(
        std::min<int>(drawn, kMaxLevelCap));

    index.levels_.push_back(level);
    index.links_.emplace_back(level + 1);

    if (id == 0) {
      index.entry_point_ = 0;
      index.max_level_ = level;
      continue;
    }

    const std::span<const float> query = index.vector(id);

    // Greedy descent through layers above the new node's level.
    const uint32_t ep = index.entry_point_;
    Neighbor cur{
        index.Distance(query, index.vectors_.data() +
                                  static_cast<size_t>(ep) * options.dim),
        ep};
    for (size_t layer = index.max_level_;
         layer > static_cast<size_t>(level); --layer) {
      bool improved = true;
      while (improved) {
        improved = false;
        for (uint32_t next : index.LinksAt(cur.id, layer)) {
          const Neighbor cand{
              index.Distance(query,
                             index.vectors_.data() +
                                 static_cast<size_t>(next) * options.dim),
              next};
          if (Closer(cand, cur)) {
            cur = cand;
            improved = true;
          }
        }
      }
    }

    // Beam search + connect on every layer at or below the node's level.
    for (size_t layer = std::min<size_t>(level, index.max_level_);; --layer) {
      std::vector<Neighbor> cands =
          index.SearchLayer(query, cur.id, ef_c, layer);
      const size_t max_degree = MaxDegree(options, layer);
      const size_t take = std::min(max_degree, cands.size());

      auto& fwd = index.links_[id][layer];
      for (size_t i = 0; i < take; ++i) {
        const uint32_t peer = cands[i].id;
        fwd.push_back(peer);
        // Reverse link; shrink the peer back to its cap by keeping the
        // closest (dist, id) neighbors.
        auto& back = index.links_[peer][layer];
        back.push_back(id);
        if (back.size() > max_degree) {
          std::vector<Neighbor> scored;
          scored.reserve(back.size());
          const std::span<const float> peer_vec = index.vector(peer);
          for (uint32_t n : back) {
            scored.push_back(
                {index.Distance(peer_vec,
                                index.vectors_.data() +
                                    static_cast<size_t>(n) * options.dim),
                 n});
          }
          std::sort(scored.begin(), scored.end(), Closer);
          back.clear();
          for (size_t j = 0; j < max_degree; ++j) {
            back.push_back(scored[j].id);
          }
        }
      }
      if (!cands.empty()) cur = cands.front();
      if (layer == 0) break;
    }

    if (level > index.max_level_) {
      index.max_level_ = level;
      index.entry_point_ = id;
    }
  }

  // Canonical form: each adjacency list sorted ascending, so the order
  // a search visits neighbors in depends on the graph alone.
  for (auto& per_node : index.links_) {
    for (auto& layer : per_node) {
      std::sort(layer.begin(), layer.end());
    }
  }
  return index;
}

std::vector<Neighbor> HnswIndex::Search(std::span<const float> query,
                                        size_t k) const {
  return Search(query, k, options_.ef_search);
}

std::vector<Neighbor> HnswIndex::Search(std::span<const float> query,
                                        size_t k, size_t ef) const {
  if (count_ == 0 || k == 0) return {};
  KG_CHECK(query.size() == options_.dim)
      << "query dim " << query.size() << " != index dim " << options_.dim;

  uint32_t ep = entry_point_;
  Neighbor cur{Distance(query, vectors_.data() +
                                   static_cast<size_t>(ep) * options_.dim),
               ep};
  for (size_t layer = max_level_; layer > 0; --layer) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t next : LinksAt(cur.id, layer)) {
        if (next >= count_) continue;
        const Neighbor cand{
            Distance(query, vectors_.data() +
                                static_cast<size_t>(next) * options_.dim),
            next};
        if (Closer(cand, cur)) {
          cur = cand;
          improved = true;
        }
      }
    }
  }

  std::vector<Neighbor> found =
      SearchLayer(query, cur.id, std::max(ef, k), 0);
  if (found.size() > k) found.resize(k);
  return found;
}

std::vector<Neighbor> HnswIndex::BruteForce(std::span<const float> query,
                                            size_t k) const {
  if (count_ == 0 || k == 0) return {};
  KG_CHECK(query.size() == options_.dim)
      << "query dim " << query.size() << " != index dim " << options_.dim;
  std::vector<Neighbor> all;
  all.reserve(count_);
  for (uint32_t id = 0; id < count_; ++id) {
    all.push_back({Distance(query, vectors_.data() +
                                       static_cast<size_t>(id) *
                                           options_.dim),
                   id});
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(), Closer);
  all.resize(take);
  return all;
}

}  // namespace kg::ann
