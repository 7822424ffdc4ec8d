#include "ann/hnsw.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <queue>
#include <tuple>
#include <unordered_set>

#include "common/bytes.h"
#include "common/hash.h"
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

  // Canonical form: adjacency sorted ascending. Search is heap-ordered,
  // so this changes nothing observable except making Serialize a pure
  // function of the graph.
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

std::string HnswIndex::Serialize() const {
  // Payload first so the header can carry its size + checksum.
  std::string payload;
  payload.reserve(count_ * (1 + options_.dim * sizeof(float)));
  payload.append(reinterpret_cast<const char*>(levels_.data()),
                 levels_.size());
  for (uint32_t id = 0; id < count_; ++id) {
    for (size_t layer = 0; layer < links_[id].size(); ++layer) {
      const auto& nbrs = links_[id][layer];
      PutU32(&payload, static_cast<uint32_t>(nbrs.size()));
      payload.append(reinterpret_cast<const char*>(nbrs.data()),
                     nbrs.size() * sizeof(uint32_t));
    }
  }
  payload.append(reinterpret_cast<const char*>(vectors_.data()),
                 vectors_.size() * sizeof(float));

  std::string out;
  out.append(kAnnMagic, sizeof kAnnMagic);
  PutU32(&out, kAnnContainerVersion);
  PutU32(&out, static_cast<uint32_t>(options_.dim));
  PutU32(&out, static_cast<uint32_t>(count_));
  PutU32(&out, static_cast<uint32_t>(options_.M));
  PutU32(&out, static_cast<uint32_t>(options_.ef_construction));
  PutU32(&out, static_cast<uint32_t>(options_.ef_search));
  PutU64(&out, options_.seed);
  PutU32(&out, entry_point_);
  PutU32(&out, max_level_);
  PutU64(&out, payload.size());
  PutU32(&out, Checksum32(payload));
  // The header checksum covers every byte before it.
  PutU32(&out, Checksum32(out));
  out += payload;
  return out;
}

Result<HnswIndex> HnswIndex::Deserialize(std::string_view data) {
  ByteReader r(data);
  const Result<std::string_view> magic = r.TakeBytes(sizeof kAnnMagic);
  if (!magic.ok()) {
    return Status::InvalidArgument("ann index: truncated magic");
  }
  if (std::memcmp(magic->data(), kAnnMagic, sizeof kAnnMagic) != 0) {
    return Status::InvalidArgument("ann index: bad magic");
  }
  uint32_t version = 0, dim = 0, count = 0, m = 0, ef_c = 0, ef_s = 0,
           entry = 0, max_level = 0, payload_checksum = 0;
  uint64_t seed = 0, payload_size = 0;
  const Status header = [&]() -> Status {
    KG_ASSIGN_OR_RETURN(version, r.TakeU32());
    KG_ASSIGN_OR_RETURN(dim, r.TakeU32());
    KG_ASSIGN_OR_RETURN(count, r.TakeU32());
    KG_ASSIGN_OR_RETURN(m, r.TakeU32());
    KG_ASSIGN_OR_RETURN(ef_c, r.TakeU32());
    KG_ASSIGN_OR_RETURN(ef_s, r.TakeU32());
    KG_ASSIGN_OR_RETURN(seed, r.TakeU64());
    KG_ASSIGN_OR_RETURN(entry, r.TakeU32());
    KG_ASSIGN_OR_RETURN(max_level, r.TakeU32());
    KG_ASSIGN_OR_RETURN(payload_size, r.TakeU64());
    KG_ASSIGN_OR_RETURN(payload_checksum, r.TakeU32());
    return Status::OK();
  }();
  if (!header.ok()) {
    return Status::InvalidArgument("ann index: truncated header");
  }
  const size_t header_end = r.pos();
  const Result<uint32_t> header_checksum = r.TakeU32();
  if (!header_checksum.ok()) {
    return Status::InvalidArgument("ann index: truncated header checksum");
  }
  if (Checksum32(data.substr(0, header_end)) != *header_checksum) {
    return Status::InvalidArgument("ann index: header checksum mismatch");
  }
  if (version > kAnnContainerVersion) {
    // Retriable by contract: a newer writer produced this file; an
    // upgraded reader may succeed.
    return Status::Unavailable("ann index: container version " +
                               std::to_string(version) +
                               " is newer than supported");
  }
  if (dim == 0 || m < 2 || max_level > kMaxLevelCap) {
    return Status::InvalidArgument("ann index: invalid header fields");
  }
  if (r.remaining() != payload_size) {
    return Status::InvalidArgument("ann index: payload size mismatch");
  }
  const std::string_view payload = data.substr(r.pos());
  if (Checksum32(payload) != payload_checksum) {
    return Status::InvalidArgument("ann index: payload checksum mismatch");
  }
  if (count > 0 && entry >= count) {
    return Status::InvalidArgument("ann index: entry point out of range");
  }

  HnswIndex index;
  index.options_.dim = dim;
  index.options_.M = m;
  index.options_.ef_construction = ef_c;
  index.options_.ef_search = ef_s;
  index.options_.seed = seed;
  index.count_ = count;
  index.entry_point_ = entry;
  index.max_level_ = static_cast<uint8_t>(max_level);

  ByteReader p(payload);
  const Result<std::string_view> levels = p.TakeBytes(count);
  if (!levels.ok()) {
    return Status::InvalidArgument("ann index: truncated levels");
  }
  index.levels_.assign(levels->begin(), levels->end());
  index.links_.resize(count);
  for (uint32_t id = 0; id < count; ++id) {
    if (index.levels_[id] > max_level) {
      return Status::InvalidArgument("ann index: node level above max");
    }
    index.links_[id].resize(index.levels_[id] + 1);
    for (size_t layer = 0; layer <= index.levels_[id]; ++layer) {
      const Result<uint32_t> n = p.TakeU32();
      if (!n.ok()) {
        return Status::InvalidArgument("ann index: truncated adjacency");
      }
      const size_t cap = layer == 0 ? static_cast<size_t>(m) * 2
                                    : static_cast<size_t>(m);
      if (*n > cap || *n > p.remaining() / sizeof(uint32_t)) {
        return Status::InvalidArgument("ann index: degree out of range");
      }
      // The degree check above leaves room for the whole array.
      const std::string_view raw = *p.TakeBytes(*n * sizeof(uint32_t));
      auto& nbrs = index.links_[id][layer];
      nbrs.resize(*n);
      if (*n > 0) std::memcpy(nbrs.data(), raw.data(), raw.size());
      for (uint32_t nbr : nbrs) {
        if (nbr >= count) {
          return Status::InvalidArgument("ann index: neighbor id out of range");
        }
      }
    }
  }
  const uint64_t vec_bytes =
      static_cast<uint64_t>(count) * dim * sizeof(float);
  if (p.remaining() != vec_bytes) {
    return Status::InvalidArgument("ann index: vector blob size mismatch");
  }
  index.vectors_.resize(static_cast<size_t>(count) * dim);
  if (vec_bytes > 0) {
    std::memcpy(index.vectors_.data(), payload.data() + p.pos(),
                static_cast<size_t>(vec_bytes));
  }
  return index;
}

Status HnswIndex::Save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("ann index: cannot open " + tmp);
    const std::string bytes = Serialize();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::IoError("ann index: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("ann index: rename to " + path + " failed");
  }
  return Status::OK();
}

Result<HnswIndex> HnswIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("ann index: cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IoError("ann index: read failed for " + path);
  }
  return Deserialize(bytes);
}

}  // namespace kg::ann
