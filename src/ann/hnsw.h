#ifndef KGRAPH_ANN_HNSW_H_
#define KGRAPH_ANN_HNSW_H_

#include <cstdint>
#include <span>
#include <vector>

namespace kg::ann {

/// HNSW construction/search knobs (Malkov & Yashunin 2018). Defaults are
/// sized for the TransE embedding sets the dual-QA path searches
/// (thousands to low-millions of vectors, dim 16-128).
struct HnswOptions {
  size_t dim = 32;
  /// Max neighbors per node on layers >= 1; layer 0 keeps 2*M.
  size_t M = 16;
  /// Beam width while inserting.
  size_t ef_construction = 128;
  /// Default beam width while searching (callers can override per query;
  /// recall grows with ef at linear cost).
  size_t ef_search = 64;
  /// Seed of the level draws. Levels are drawn from Rng::Split(id), so
  /// construction is a pure function of (vectors, options) — independent
  /// of machine, run, or anything else.
  uint64_t seed = 1;
};

/// One search hit: squared-L2 distance to the query plus the vector id.
/// Results are ordered by (dist, id) — the total order every internal
/// candidate heap uses, which is what makes search deterministic.
struct Neighbor {
  float dist = 0.0f;
  uint32_t id = 0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// A from-scratch HNSW index over float vectors with deterministic
/// seeded construction: vectors are inserted in id order, level draws
/// are pure functions of (seed, id), and every tie in every priority
/// queue breaks on id. Two Build calls with equal inputs produce the same
/// graph, so they answer every query alike (ann_index_test pins this).
///
/// Thread-safety: Build is single-threaded by design (HNSW insertion
/// mutates shared adjacency; a deterministic parallel build would need
/// fine-grained ordering for no payoff at this scale). A built index is
/// immutable — Search is const and safe to call concurrently.
class HnswIndex {
 public:
  HnswIndex() = default;

  /// Builds over `vectors` (row-major, size == n * options.dim; n is
  /// derived). Aborts on a size mismatch.
  static HnswIndex Build(std::vector<float> vectors,
                         const HnswOptions& options);

  /// Top-k by squared L2, ordered (dist, id), using options.ef_search.
  std::vector<Neighbor> Search(std::span<const float> query,
                               size_t k) const;

  /// Same with an explicit beam width (ef is clamped up to k).
  std::vector<Neighbor> Search(std::span<const float> query, size_t k,
                               size_t ef) const;

  /// Exact top-k by linear scan — the oracle recall tests compare
  /// against, and the sane path for tiny indexes.
  std::vector<Neighbor> BruteForce(std::span<const float> query,
                                   size_t k) const;

  size_t size() const { return count_; }
  size_t dim() const { return options_.dim; }
  const HnswOptions& options() const { return options_; }

  /// The stored vector for `id`; empty span when out of range (clamped,
  /// never UB).
  std::span<const float> vector(uint32_t id) const {
    if (id >= count_) return {};
    return {vectors_.data() + static_cast<size_t>(id) * options_.dim,
            options_.dim};
  }

 private:
  /// Neighbor list of `node` on `layer` (empty when out of range).
  const std::vector<uint32_t>& LinksAt(uint32_t node, size_t layer) const;

  float Distance(std::span<const float> a, const float* b) const;

  /// Greedy beam search on one layer from `entry`, returning up to `ef`
  /// candidates ordered (dist, id).
  std::vector<Neighbor> SearchLayer(std::span<const float> query,
                                    uint32_t entry, size_t ef,
                                    size_t layer) const;

  HnswOptions options_;
  size_t count_ = 0;
  std::vector<float> vectors_;        ///< count_ * dim, row-major.
  std::vector<uint8_t> levels_;       ///< Top layer of each node.
  /// links_[node][layer] = neighbor ids, kept sorted ascending.
  std::vector<std::vector<std::vector<uint32_t>>> links_;
  uint32_t entry_point_ = 0;
  uint8_t max_level_ = 0;
};

}  // namespace kg::ann

#endif  // KGRAPH_ANN_HNSW_H_
