#include "serve/snapshot.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace kg::serve {

namespace {

using graph::NodeKind;

void HashBytes(uint64_t* h, std::string_view bytes) {
  for (char c : bytes) {
    *h ^= static_cast<uint8_t>(c);
    *h *= 1099511628211ULL;
  }
}

void HashU32(uint64_t* h, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    *h ^= (v >> shift) & 0xffu;
    *h *= 1099511628211ULL;
  }
}

inline constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

/// Core row encoder over packed (first << 32 | second) entries, the form
/// the builder's transient row buffers hold (uint64 sort order ==
/// (first, second) lexicographic order, so a sorted slice is a sorted
/// row). Format documented at AppendEdgeRow.
void EncodeRowPacked(const uint64_t* begin, const uint64_t* end,
                     std::string* out) {
  if (begin == end) return;  // empty row: zero bytes
  AppendVarint(out, static_cast<uint64_t>(end - begin));
  uint32_t prev_first = 0, prev_second = 0;
  for (const uint64_t* p = begin; p != end; ++p) {
    const uint32_t first = static_cast<uint32_t>(*p >> 32);
    const uint32_t second = static_cast<uint32_t>(*p);
    const uint32_t d1 = first - prev_first;
    AppendVarint(out, d1);
    AppendVarint(out, d1 == 0 ? second - prev_second : second);
    prev_first = first;
    prev_second = second;
  }
}

/// Sizes a flat open-addressing table for `n` names at <= 50% load.
/// Matches the historical NameIndex::Reserve geometry so fingerprint-
/// equal snapshots also probe identically.
size_t IndexCapacity(size_t n) {
  size_t capacity = 4;
  while (capacity < 2 * n) capacity *= 2;
  return capacity;
}

void IndexInsert(std::vector<SnapshotIndexSlot>* slots, uint64_t mask,
                 std::string_view name, uint32_t id) {
  const uint64_t h = Fnv1a64(name);
  uint64_t slot = h & mask;
  while ((*slots)[slot].id_plus_1 != 0) slot = (slot + 1) & mask;
  (*slots)[slot] = SnapshotIndexSlot{h, id + 1, 0};
}

std::string_view ViewOf(const std::string& s) {
  return std::string_view(s.data(), s.size());
}

template <typename T>
std::string_view ViewOf(const std::vector<T>& v) {
  return std::string_view(reinterpret_cast<const char*>(v.data()),
                          v.size() * sizeof(T));
}

}  // namespace

Status CheckSchema(const KgSnapshot& snapshot) {
  if (snapshot.schema_version() <= kSnapshotSchemaVersion) {
    return Status::OK();
  }
  return Status::Unavailable(
      "snapshot schema version " + std::to_string(snapshot.schema_version()) +
      " is newer than this build supports (" +
      std::to_string(kSnapshotSchemaVersion) + ")");
}

// --- EdgeRange ----------------------------------------------------------

KgSnapshot::EdgeRange::EdgeRange(const uint8_t* begin, const uint8_t* end) {
  if (begin == nullptr || begin >= end) return;
  uint64_t count = 0;
  const size_t n = DecodeVarint(begin, end, &count);
  if (n == 0) return;
  payload_ = begin + n;
  end_ = end;
  // A real edge costs at least two bytes (two varints); clamp a hostile
  // count so size() can never promise more than the payload could hold.
  const uint64_t max_count = static_cast<uint64_t>(end_ - payload_) / 2;
  count_ = count < max_count ? count : max_count;
}

void KgSnapshot::EdgeRange::iterator::Advance() {
  if (left_ == 0) {
    avail_ = false;
    return;
  }
  uint64_t d1 = 0, v2 = 0;
  size_t n = DecodeVarint(p_, end_, &d1);
  if (n == 0) {
    left_ = 0;
    avail_ = false;
    return;
  }
  p_ += n;
  n = DecodeVarint(p_, end_, &v2);
  if (n == 0) {
    left_ = 0;
    avail_ = false;
    return;
  }
  p_ += n;
  const uint64_t first = static_cast<uint64_t>(cur_.first) + d1;
  const uint64_t second = d1 == 0 ? static_cast<uint64_t>(cur_.second) + v2
                                  : v2;
  if (first > UINT32_MAX || second > UINT32_MAX) {  // malformed bytes
    left_ = 0;
    avail_ = false;
    return;
  }
  cur_.first = static_cast<uint32_t>(first);
  cur_.second = static_cast<uint32_t>(second);
  --left_;
  avail_ = true;
}

// --- Row codec ----------------------------------------------------------

void AppendEdgeRow(std::string* out,
                   const std::vector<KgSnapshot::Edge>& edges) {
  std::vector<uint64_t> packed;
  packed.reserve(edges.size());
  for (const KgSnapshot::Edge& e : edges) {
    packed.push_back(static_cast<uint64_t>(e.first) << 32 | e.second);
  }
  EncodeRowPacked(packed.data(), packed.data() + packed.size(), out);
}

bool DecodeEdgeRow(std::string_view bytes,
                   std::vector<KgSnapshot::Edge>* out) {
  out->clear();
  if (bytes.empty()) return true;  // empty row
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* end = p + bytes.size();
  uint64_t count = 0;
  size_t n = DecodeVarint(p, end, &count);
  if (n == 0) return false;
  p += n;
  if (count == 0 || count > static_cast<uint64_t>(end - p) / 2) {
    out->clear();
    return false;
  }
  out->reserve(count);
  uint32_t prev_first = 0, prev_second = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t d1 = 0, v2 = 0;
    n = DecodeVarint(p, end, &d1);
    if (n == 0) break;
    p += n;
    n = DecodeVarint(p, end, &v2);
    if (n == 0) break;
    p += n;
    const uint64_t first = static_cast<uint64_t>(prev_first) + d1;
    const uint64_t second =
        d1 == 0 ? static_cast<uint64_t>(prev_second) + v2 : v2;
    if (first > UINT32_MAX || second > UINT32_MAX) break;
    // Sortedness inside an equal-first run is free (unsigned delta); an
    // explicit check guards the cross-run boundary.
    if (i > 0 && d1 == 0 && second < prev_second) break;
    out->push_back(KgSnapshot::Edge{static_cast<uint32_t>(first),
                                    static_cast<uint32_t>(second)});
    prev_first = static_cast<uint32_t>(first);
    prev_second = static_cast<uint32_t>(second);
  }
  if (out->size() != count || p != end) {
    out->clear();
    return false;
  }
  return true;
}

// --- SnapshotBuilder ----------------------------------------------------

struct SnapshotBuilder::Storage {
  std::vector<uint8_t> node_kinds;
  std::vector<uint32_t> node_name_offsets{0};
  std::string node_arena;
  std::vector<uint32_t> pred_name_offsets{0};
  std::string pred_arena;

  std::vector<uint64_t> spo_offsets, osp_offsets, pred_triple_counts;
  std::string spo_bytes, osp_bytes;

  std::array<std::vector<SnapshotIndexSlot>, 3> node_index;
  std::vector<SnapshotIndexSlot> pred_index;

  uint64_t num_triples = 0;
  uint64_t fingerprint = 0;
  bool arena_overflow = false;  ///< a name arena would exceed UINT32_MAX

  size_t num_nodes() const { return node_kinds.size(); }
  size_t num_preds() const { return pred_name_offsets.size() - 1; }

  std::string_view NodeNameAt(size_t i) const {
    return std::string_view(node_arena)
        .substr(node_name_offsets[i],
                node_name_offsets[i + 1] - node_name_offsets[i]);
  }
  std::string_view PredNameAt(size_t i) const {
    return std::string_view(pred_arena)
        .substr(pred_name_offsets[i],
                pred_name_offsets[i + 1] - pred_name_offsets[i]);
  }
};

SnapshotBuilder::SnapshotBuilder() : storage_(std::make_shared<Storage>()) {}

void SnapshotBuilder::AddNode(std::string_view name, graph::NodeKind kind) {
  KG_CHECK(!built_);
  storage_->node_kinds.push_back(static_cast<uint8_t>(kind));
  // The offset table is uint32_t, so the arena must stay addressable in
  // 32 bits (the loader enforces the same limit). Stop growing on
  // overflow and let Build() report it, instead of wrapping the offsets
  // into a self-consistent but corrupt snapshot.
  if (name.size() > UINT32_MAX - storage_->node_arena.size()) {
    storage_->arena_overflow = true;
  } else {
    storage_->node_arena.append(name);
  }
  storage_->node_name_offsets.push_back(
      static_cast<uint32_t>(storage_->node_arena.size()));
}

void SnapshotBuilder::AddPredicate(std::string_view name) {
  KG_CHECK(!built_);
  if (name.size() > UINT32_MAX - storage_->pred_arena.size()) {
    storage_->arena_overflow = true;
  } else {
    storage_->pred_arena.append(name);
  }
  storage_->pred_name_offsets.push_back(
      static_cast<uint32_t>(storage_->pred_arena.size()));
}

Result<KgSnapshot> SnapshotBuilder::Build(const TripleStream& stream) {
  if (built_) {
    return Status::InvalidArgument("SnapshotBuilder already built");
  }
  built_ = true;
  Storage& st = *storage_;
  const size_t n = st.num_nodes();
  const size_t m = st.num_preds();
  if (n >= UINT32_MAX || m >= UINT32_MAX) {
    return Status::InvalidArgument("vocabulary exceeds 32-bit id space");
  }
  if (st.arena_overflow) {
    return Status::InvalidArgument("name arena exceeds 32-bit offset space");
  }

  // Fingerprint prefix: the vocabulary in id order (same walk the
  // historical Compile hashed, so fingerprints stay comparable across
  // representation generations).
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < n; ++i) {
    HashU32(&h, st.node_kinds[i]);
    const std::string_view name = st.NodeNameAt(i);
    HashU32(&h, static_cast<uint32_t>(name.size()));
    HashBytes(&h, name);
  }
  for (size_t i = 0; i < m; ++i) {
    const std::string_view name = st.PredNameAt(i);
    HashU32(&h, static_cast<uint32_t>(name.size()));
    HashBytes(&h, name);
  }

  // Pass 1 over the stream: validate ids and (s, p, o) ordering, encode
  // the SPO order directly (the stream order *is* SPO row order), count
  // each predicate's triples and each OSP row's entries (into the slot
  // after the row's, so a prefix sum turns them into row starts), and
  // extend the fingerprint with the triple walk.
  st.pred_triple_counts.assign(m, 0);
  std::vector<uint64_t> osp_starts(n + 1, 0);
  std::vector<uint64_t> row_edges;  // (p << 32 | o) of the open SPO row
  Status error = Status::OK();
  uint64_t prev_s = 0, prev_p = 0, prev_o = 0;
  bool any = false;
  uint64_t open_row = 0;  // subject of row_edges
  st.spo_offsets.assign(1, 0);
  auto flush_rows_through = [&](uint64_t next_s) {
    // Close the open row, then empty rows up to (excluding) next_s.
    if (!row_edges.empty()) {
      EncodeRowPacked(row_edges.data(), row_edges.data() + row_edges.size(),
                      &st.spo_bytes);
      row_edges.clear();
    }
    while (st.spo_offsets.size() <= next_s) {
      st.spo_offsets.push_back(st.spo_bytes.size());
    }
  };
  stream([&](uint32_t s, uint32_t p, uint32_t o) {
    if (!error.ok()) return;
    if (s >= n || o >= n || p >= m) {
      error = Status::InvalidArgument("triple id out of range");
      return;
    }
    if (any && std::tuple(s, p, o) < std::tuple(static_cast<uint32_t>(prev_s),
                                                static_cast<uint32_t>(prev_p),
                                                static_cast<uint32_t>(prev_o))) {
      error = Status::InvalidArgument("triple stream not sorted by (s,p,o)");
      return;
    }
    if (!any || s != open_row) {
      flush_rows_through(s);
      open_row = s;
    }
    row_edges.push_back(static_cast<uint64_t>(p) << 32 | o);
    ++st.pred_triple_counts[p];
    ++osp_starts[o + 1];
    ++st.num_triples;
    HashU32(&h, s);
    HashU32(&h, p);
    HashU32(&h, o);
    prev_s = s;
    prev_p = p;
    prev_o = o;
    any = true;
  });
  if (!error.ok()) return error;
  flush_rows_through(n);
  st.fingerprint = h;

  // Pass 2: place packed (p << 32 | s) entries into their object's OSP
  // row with a cursor array, sort each row, and varint-encode. Transient
  // cost is 8 bytes per posting, independent of how the stream produces
  // the triples.
  std::partial_sum(osp_starts.begin(), osp_starts.end(), osp_starts.begin());
  std::vector<uint64_t> cursor(osp_starts.begin(), osp_starts.end() - 1);
  std::vector<uint64_t> packed(st.num_triples);
  bool replayed = true;
  stream([&](uint32_t s, uint32_t p, uint32_t o) {
    replayed = replayed && o < n && cursor[o] < osp_starts[o + 1];
    if (replayed) packed[cursor[o]++] = static_cast<uint64_t>(p) << 32 | s;
  });
  if (!replayed || !std::equal(cursor.begin(), cursor.end(),
                               osp_starts.begin() + 1)) {
    return Status::InvalidArgument("triple stream did not replay identically");
  }
  st.osp_offsets.assign(1, 0);
  st.osp_offsets.reserve(n + 1);
  for (size_t row = 0; row < n; ++row) {
    uint64_t* b = packed.data() + osp_starts[row];
    uint64_t* e = packed.data() + osp_starts[row + 1];
    std::sort(b, e);
    EncodeRowPacked(b, e, &st.osp_bytes);
    st.osp_offsets.push_back(st.osp_bytes.size());
  }

  // Name indexes, one table per node kind plus one for predicates.
  std::array<size_t, 3> kind_counts{};
  for (const uint8_t kind : st.node_kinds) ++kind_counts[kind <= 2 ? kind : 0];
  for (size_t k = 0; k < 3; ++k) {
    st.node_index[k].assign(IndexCapacity(kind_counts[k]),
                            SnapshotIndexSlot{});
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t k = st.node_kinds[i] <= 2 ? st.node_kinds[i] : 0;
    IndexInsert(&st.node_index[k], st.node_index[k].size() - 1,
                st.NodeNameAt(i), static_cast<uint32_t>(i));
  }
  st.pred_index.assign(IndexCapacity(m), SnapshotIndexSlot{});
  for (size_t i = 0; i < m; ++i) {
    IndexInsert(&st.pred_index, st.pred_index.size() - 1, st.PredNameAt(i),
                static_cast<uint32_t>(i));
  }

  KgSnapshot::RawParts parts;
  parts.num_nodes = n;
  parts.num_predicates = m;
  parts.num_triples = st.num_triples;
  parts.fingerprint = st.fingerprint;
  parts.schema_version = kSnapshotSchemaVersion;
  parts.sections[kSectionNodeKinds] = ViewOf(st.node_kinds);
  parts.sections[kSectionNodeNameOffsets] = ViewOf(st.node_name_offsets);
  parts.sections[kSectionNodeArena] = ViewOf(st.node_arena);
  parts.sections[kSectionPredNameOffsets] = ViewOf(st.pred_name_offsets);
  parts.sections[kSectionPredArena] = ViewOf(st.pred_arena);
  parts.sections[kSectionSpoOffsets] = ViewOf(st.spo_offsets);
  parts.sections[kSectionSpoBytes] = ViewOf(st.spo_bytes);
  parts.sections[kSectionPredTripleCounts] = ViewOf(st.pred_triple_counts);
  parts.sections[kSectionOspOffsets] = ViewOf(st.osp_offsets);
  parts.sections[kSectionOspBytes] = ViewOf(st.osp_bytes);
  parts.sections[kSectionNodeIndexEntity] = ViewOf(st.node_index[0]);
  parts.sections[kSectionNodeIndexText] = ViewOf(st.node_index[1]);
  parts.sections[kSectionNodeIndexClass] = ViewOf(st.node_index[2]);
  parts.sections[kSectionPredIndex] = ViewOf(st.pred_index);
  return KgSnapshot::FromRawParts(parts, storage_);
}

// --- KgSnapshot ---------------------------------------------------------

KgSnapshot KgSnapshot::FromRawParts(const RawParts& parts,
                                    std::shared_ptr<const void> backing) {
  KgSnapshot s;
  s.num_nodes_ = parts.num_nodes;
  s.num_predicates_ = parts.num_predicates;
  s.num_triples_ = parts.num_triples;
  s.fingerprint_ = parts.fingerprint;
  s.schema_version_ = parts.schema_version;
  const auto& sec = parts.sections;
  const auto u8 = [](std::string_view v) {
    return v.empty() ? nullptr : reinterpret_cast<const uint8_t*>(v.data());
  };
  const auto u32 = [](std::string_view v) {
    return v.empty() ? nullptr : reinterpret_cast<const uint32_t*>(v.data());
  };
  const auto u64 = [](std::string_view v) {
    return v.empty() ? nullptr : reinterpret_cast<const uint64_t*>(v.data());
  };
  s.node_kinds_ = u8(sec[kSectionNodeKinds]);
  s.node_name_offsets_ = u32(sec[kSectionNodeNameOffsets]);
  s.node_arena_ = sec[kSectionNodeArena].data();
  s.node_arena_size_ = sec[kSectionNodeArena].size();
  s.pred_name_offsets_ = u32(sec[kSectionPredNameOffsets]);
  s.pred_arena_ = sec[kSectionPredArena].data();
  s.pred_arena_size_ = sec[kSectionPredArena].size();
  s.spo_ = CsrView{u64(sec[kSectionSpoOffsets]),
                   u8(sec[kSectionSpoBytes]), sec[kSectionSpoBytes].size()};
  s.osp_ = CsrView{u64(sec[kSectionOspOffsets]),
                   u8(sec[kSectionOspBytes]), sec[kSectionOspBytes].size()};
  s.pred_triple_counts_ = u64(sec[kSectionPredTripleCounts]);
  const auto index = [](std::string_view v) {
    IndexView out;
    const size_t slots = v.size() / sizeof(SnapshotIndexSlot);
    if (slots != 0) {
      out.slots = reinterpret_cast<const SnapshotIndexSlot*>(v.data());
      out.mask = slots - 1;
    }
    return out;
  };
  s.node_index_[0] = index(sec[kSectionNodeIndexEntity]);
  s.node_index_[1] = index(sec[kSectionNodeIndexText]);
  s.node_index_[2] = index(sec[kSectionNodeIndexClass]);
  s.predicate_index_ = index(sec[kSectionPredIndex]);
  s.backing_ = std::move(backing);
  return s;
}

KgSnapshot KgSnapshot::Compile(const graph::KnowledgeGraph& kg) {
  // 1. Collect the live vocabulary: nodes and predicates that occur in at
  //    least one non-tombstoned triple.
  const auto live = kg.AllTriples();
  std::vector<bool> node_live(kg.num_nodes(), false);
  std::vector<bool> pred_live(kg.num_predicates(), false);
  for (graph::TripleId id : live) {
    const graph::Triple& t = kg.triple(id);
    node_live[t.subject] = true;
    node_live[t.object] = true;
    pred_live[t.predicate] = true;
  }

  // 2. Assign dense ids in (kind, name) / name order. Names are unique per
  //    kind, so the order — and everything derived from it — is independent
  //    of the source KG's insertion history.
  std::vector<graph::NodeId> node_order;
  for (graph::NodeId n = 0; n < kg.num_nodes(); ++n) {
    if (node_live[n]) node_order.push_back(n);
  }
  std::sort(node_order.begin(), node_order.end(),
            [&kg](graph::NodeId a, graph::NodeId b) {
              const auto ka = kg.GetNodeKind(a), kb = kg.GetNodeKind(b);
              if (ka != kb) return ka < kb;
              return kg.NodeName(a) < kg.NodeName(b);
            });
  std::vector<graph::PredicateId> pred_order;
  for (graph::PredicateId p = 0; p < kg.num_predicates(); ++p) {
    if (pred_live[p]) pred_order.push_back(p);
  }
  std::sort(pred_order.begin(), pred_order.end(),
            [&kg](graph::PredicateId a, graph::PredicateId b) {
              return kg.PredicateName(a) < kg.PredicateName(b);
            });

  SnapshotBuilder builder;
  std::vector<NodeId> node_remap(kg.num_nodes(), kInvalidNode);
  for (size_t i = 0; i < node_order.size(); ++i) {
    node_remap[node_order[i]] = static_cast<NodeId>(i);
    builder.AddNode(kg.NodeName(node_order[i]),
                    kg.GetNodeKind(node_order[i]));
  }
  std::vector<PredicateId> pred_remap(kg.num_predicates(), 0);
  for (size_t i = 0; i < pred_order.size(); ++i) {
    pred_remap[pred_order[i]] = static_cast<PredicateId>(i);
    builder.AddPredicate(kg.PredicateName(pred_order[i]));
  }

  // 3. Remap triples into dense id space and sort once; the builder
  //    replays the sorted vector per order.
  std::vector<std::array<uint32_t, 3>> triples;
  triples.reserve(live.size());
  for (graph::TripleId id : live) {
    const graph::Triple& t = kg.triple(id);
    triples.push_back({node_remap[t.subject], pred_remap[t.predicate],
                       node_remap[t.object]});
  }
  std::sort(triples.begin(), triples.end());

  auto built = builder.Build([&triples](const SnapshotBuilder::TripleSink& sink) {
    for (const auto& t : triples) sink(t[0], t[1], t[2]);
  });
  KG_CHECK_OK(built.status());  // ids and order are correct by construction
  return *std::move(built);
}

NodeId KgSnapshot::FindNode(std::string_view name, NodeKind kind) const {
  const size_t k = static_cast<size_t>(kind) <= 2
                       ? static_cast<size_t>(kind)
                       : 0;
  return node_index_[k].Find(name, static_cast<uint32_t>(num_nodes_),
                             [this](uint32_t i) { return NodeName(i); });
}

PredicateId KgSnapshot::FindPredicate(std::string_view name) const {
  return predicate_index_.Find(
      name, static_cast<uint32_t>(num_predicates_),
      [this](uint32_t i) { return PredicateName(i); });
}

KgSnapshot::EdgeRange KgSnapshot::Row(const CsrView& csr,
                                      uint64_t row) const {
  if (csr.offsets == nullptr || csr.bytes == nullptr) return EdgeRange();
  uint64_t b = csr.offsets[row], e = csr.offsets[row + 1];
  // Clamp hostile offsets to the physical section so a corrupt table can
  // shorten a row, never escape it.
  if (b > csr.byte_size) b = csr.byte_size;
  if (e > csr.byte_size) e = csr.byte_size;
  if (e < b) e = b;
  return EdgeRange(csr.bytes + b, csr.bytes + e);
}

KgSnapshot::EdgeRange KgSnapshot::OutEdges(NodeId s) const {
  if (s >= num_nodes_) return EdgeRange();
  return Row(spo_, s);
}

KgSnapshot::EdgeRange KgSnapshot::InEdges(NodeId o) const {
  if (o >= num_nodes_) return EdgeRange();
  return Row(osp_, o);
}

size_t KgSnapshot::CountObjects(NodeId s, PredicateId p) const {
  size_t count = 0;
  for (const Edge& e : OutEdges(s)) {
    if (e.first < p) continue;
    if (e.first > p) break;
    ++count;
  }
  return count;
}

bool KgSnapshot::HasTriple(NodeId s, PredicateId p, NodeId o) const {
  for (const Edge& e : OutEdges(s)) {
    if (e.first < p) continue;
    if (e.first > p) break;
    if (e.second == o) return true;
    if (e.second > o) break;
  }
  return false;
}

KgSnapshot::Footprint KgSnapshot::MemoryFootprint() const {
  const auto sections = SectionBytes();
  Footprint f;
  f.kind_bytes = sections[kSectionNodeKinds].size();
  f.arena_bytes = sections[kSectionNodeArena].size() +
                  sections[kSectionPredArena].size();
  f.offset_bytes = sections[kSectionNodeNameOffsets].size() +
                   sections[kSectionPredNameOffsets].size() +
                   sections[kSectionSpoOffsets].size() +
                   sections[kSectionPredTripleCounts].size() +
                   sections[kSectionOspOffsets].size();
  f.posting_bytes = sections[kSectionSpoBytes].size() +
                    sections[kSectionOspBytes].size();
  f.index_bytes = sections[kSectionNodeIndexEntity].size() +
                  sections[kSectionNodeIndexText].size() +
                  sections[kSectionNodeIndexClass].size() +
                  sections[kSectionPredIndex].size();
  return f;
}

std::array<std::string_view, kNumSnapshotSections> KgSnapshot::SectionBytes()
    const {
  std::array<std::string_view, kNumSnapshotSections> out{};
  const auto view = [](const void* p, uint64_t bytes) {
    return p == nullptr ? std::string_view()
                        : std::string_view(static_cast<const char*>(p),
                                           bytes);
  };
  out[kSectionNodeKinds] = view(node_kinds_, num_nodes_);
  out[kSectionNodeNameOffsets] =
      view(node_name_offsets_, (num_nodes_ + 1) * sizeof(uint32_t));
  out[kSectionNodeArena] = view(node_arena_, node_arena_size_);
  out[kSectionPredNameOffsets] =
      view(pred_name_offsets_, (num_predicates_ + 1) * sizeof(uint32_t));
  out[kSectionPredArena] = view(pred_arena_, pred_arena_size_);
  out[kSectionSpoOffsets] =
      view(spo_.offsets, (num_nodes_ + 1) * sizeof(uint64_t));
  out[kSectionSpoBytes] = view(spo_.bytes, spo_.byte_size);
  out[kSectionPredTripleCounts] =
      view(pred_triple_counts_, num_predicates_ * sizeof(uint64_t));
  out[kSectionOspOffsets] =
      view(osp_.offsets, (num_nodes_ + 1) * sizeof(uint64_t));
  out[kSectionOspBytes] = view(osp_.bytes, osp_.byte_size);
  const auto index_view = [&view](const IndexView& idx) {
    return idx.slots == nullptr
               ? std::string_view()
               : view(idx.slots, (idx.mask + 1) * sizeof(SnapshotIndexSlot));
  };
  out[kSectionNodeIndexEntity] = index_view(node_index_[0]);
  out[kSectionNodeIndexText] = index_view(node_index_[1]);
  out[kSectionNodeIndexClass] = index_view(node_index_[2]);
  out[kSectionPredIndex] = index_view(predicate_index_);
  return out;
}

uint64_t RecomputeFingerprint(const KgSnapshot& snapshot) {
  uint64_t h = kFnvOffset;
  for (NodeId n = 0; n < snapshot.num_nodes(); ++n) {
    HashU32(&h, static_cast<uint32_t>(snapshot.NodeKindOf(n)));
    const std::string_view name = snapshot.NodeName(n);
    HashU32(&h, static_cast<uint32_t>(name.size()));
    HashBytes(&h, name);
  }
  for (PredicateId p = 0; p < snapshot.num_predicates(); ++p) {
    const std::string_view name = snapshot.PredicateName(p);
    HashU32(&h, static_cast<uint32_t>(name.size()));
    HashBytes(&h, name);
  }
  for (NodeId s = 0; s < snapshot.num_nodes(); ++s) {
    for (const KgSnapshot::Edge& e : snapshot.OutEdges(s)) {
      HashU32(&h, s);
      HashU32(&h, e.first);
      HashU32(&h, e.second);
    }
  }
  return h;
}

void PublishSnapshotFootprint(const KgSnapshot& snapshot,
                              obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const KgSnapshot::Footprint f = snapshot.MemoryFootprint();
  registry->GetGauge("serve.snapshot.bytes.kinds")
      .Set(static_cast<int64_t>(f.kind_bytes));
  registry->GetGauge("serve.snapshot.bytes.arena")
      .Set(static_cast<int64_t>(f.arena_bytes));
  registry->GetGauge("serve.snapshot.bytes.offsets")
      .Set(static_cast<int64_t>(f.offset_bytes));
  registry->GetGauge("serve.snapshot.bytes.postings")
      .Set(static_cast<int64_t>(f.posting_bytes));
  registry->GetGauge("serve.snapshot.bytes.index")
      .Set(static_cast<int64_t>(f.index_bytes));
  registry->GetGauge("serve.snapshot.bytes.total")
      .Set(static_cast<int64_t>(f.total()));
  registry->GetGauge("serve.snapshot.nodes")
      .Set(static_cast<int64_t>(snapshot.num_nodes()));
  registry->GetGauge("serve.snapshot.triples")
      .Set(static_cast<int64_t>(snapshot.num_triples()));
}

}  // namespace kg::serve
