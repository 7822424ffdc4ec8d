// Format-fuzz battery for the binary snapshot container. Two promises
// under attack:
//   1. kChecksum verification rejects EVERY corruption — truncation at
//      any byte offset, any single-bit flip anywhere in the file
//      (header, fingerprint, section table, payload, padding).
//   2. No input — garbage, truncated, or structurally-valid-but-
//      content-mutated — ever crashes the loader or a snapshot built
//      from it. kHeader mode deliberately skips the payload checksum,
//      so mutated payloads that pass structural checks get served; the
//      accessors' bounds clamping (run under KG_SANITIZE=undefined and
//      KG_SANITIZE=address in CI) is what makes that safe.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_binary.h"
#include "synth/scale_world.h"

namespace kg::serve {
namespace {

/// A small world with hostile vocabulary: names with tabs, newlines,
/// backslashes, embedded NULs, empties-after-escape — everything the
/// arena must carry byte-for-byte.
KgSnapshot HostileSnapshot() {
  graph::KnowledgeGraph kg;
  const graph::Provenance prov{"fuzz", 1.0, 0};
  using graph::NodeKind;
  const std::vector<std::string> names = {
      "plain",
      "tab\there",
      "newline\nthere",
      "backslash\\always",
      std::string("nul\0inside", 10),
      "\t\n\\",
  };
  for (size_t i = 0; i < names.size(); ++i) {
    kg.AddTriple(names[i], "rel\ttab", names[(i + 1) % names.size()],
                 NodeKind::kEntity, NodeKind::kEntity, prov);
    kg.AddTriple(names[i], "type", "c\nlass", NodeKind::kEntity,
                 NodeKind::kClass, prov);
  }
  return KgSnapshot::Compile(kg);
}

uint64_t ReadU64At(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

void WriteU64At(std::string* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Re-stamps the header checksum after a deliberate header edit, so the
/// edit is the only defect the loader sees.
void RestampHeaderChecksum(std::string* bytes) {
  const uint32_t fixed = Checksum32(
      std::string_view(*bytes).substr(0, kBinarySnapshotHeaderSize - 4));
  for (int i = 0; i < 4; ++i) {
    (*bytes)[kBinarySnapshotHeaderSize - 4 + i] =
        static_cast<char>((fixed >> (8 * i)) & 0xff);
  }
}

/// Byte offset of section `sec`'s {offset, size} entry in the header.
size_t SectionEntry(SnapshotSection sec) { return 48 + 16 * sec; }

KgSnapshot ScaleSnapshot() {
  synth::ScaleWorldSpec spec;
  spec.seed = 77;
  spec.num_entities = 200;
  spec.num_categories = 8;
  return synth::BuildScaleSnapshot(spec);
}

/// Drives every read surface of a loaded snapshot. The return value
/// defeats dead-code elimination; correctness of the answers is NOT
/// asserted here (the input may be mutated garbage) — only that no read
/// escapes its bounds.
size_t ExerciseSnapshot(const KgSnapshot& snap) {
  size_t sink = 0;
  const size_t nodes = snap.num_nodes();
  const size_t preds = snap.num_predicates();
  // Render every decoded edge id exactly the way the query paths do
  // (RenderNode, merged-read retraction checks): corrupt postings can
  // put ANY uint32 into an Edge, and NodeName/NodeKindOf/PredicateName
  // must clamp it rather than index the offset tables with it.
  const auto render = [&snap, &sink](uint32_t pred_id, uint32_t node_id) {
    sink += snap.PredicateName(pred_id).size();
    sink += snap.NodeName(node_id).size();
    sink += static_cast<size_t>(snap.NodeKindOf(node_id));
  };
  for (size_t n = 0; n < nodes; ++n) {
    const NodeId id = static_cast<NodeId>(n);
    sink += snap.NodeName(id).size();
    sink += static_cast<size_t>(snap.NodeKindOf(id));
    for (const KgSnapshot::Edge& e : snap.OutEdges(id)) {
      render(e.first, e.second);  // Edge{predicate, object}
      // Expand through the decoded id the way TopKRelated's BFS does.
      sink += snap.OutEdges(e.second).size();
      sink += snap.InEdges(e.second).size();
    }
    for (const KgSnapshot::Edge& e : snap.InEdges(id)) {
      render(e.first, e.second);  // Edge{predicate, subject}
    }
    sink += snap.FindNode(snap.NodeName(id), snap.NodeKindOf(id)).ok();
  }
  for (size_t p = 0; p < preds; ++p) {
    const PredicateId id = static_cast<PredicateId>(p);
    sink += snap.PredicateName(id).size();
    sink += snap.PredicateTripleCount(id);
  }
  // Out-of-range ids must degrade (empty name / default kind / empty
  // range / zero count), never read or abort.
  for (const uint32_t hostile :
       {static_cast<uint32_t>(nodes), static_cast<uint32_t>(nodes + 1),
        static_cast<uint32_t>(preds), UINT32_MAX}) {
    sink += snap.NodeName(hostile).size();
    sink += static_cast<size_t>(snap.NodeKindOf(hostile));
    sink += snap.PredicateName(hostile).size();
    sink += snap.OutEdges(hostile).size();
    sink += snap.InEdges(hostile).size();
    sink += snap.PredicateTripleCount(hostile);
  }
  if (nodes > 0 && preds > 0) {
    sink += snap.Objects(0, 0).size();
    sink += snap.CountObjects(static_cast<NodeId>(nodes - 1), 0);
    sink += snap.HasTriple(0, 0, 0);
  }
  const QueryEngine engine(snap);
  sink += engine.Execute(Query::Neighborhood("plain")).size();
  sink += engine.Execute(Query::PointLookup("e000000001", "has_brand")).size();
  // Attribute-by-type walks the class's in-edge run, then each decoded
  // member's out-edge run, and renders both ends.
  sink += engine.Execute(Query::AttributeByType("c\nlass", "rel\ttab")).size();
  sink += engine.Execute(Query::AttributeByType("c0000", "has_brand")).size();
  // TopKRelated BFS-expands decoded edge targets through OutEdges/
  // InEdges and renders the winners; runs on whatever ids survive.
  sink += engine.Execute(Query::TopKRelated("e000000001", 5)).size();
  sink += engine.Execute(Query::TopKRelated("plain", 3)).size();
  return sink;
}

TEST(SnapshotBinaryFuzzTest, RoundTripsCleanly) {
  for (const KgSnapshot& snap : {HostileSnapshot(), ScaleSnapshot()}) {
    const std::string bytes = SerializeSnapshotBinary(snap);
    auto back = DeserializeSnapshotBinary(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->Fingerprint(), snap.Fingerprint());
    EXPECT_EQ(back->num_nodes(), snap.num_nodes());
    EXPECT_EQ(back->num_triples(), snap.num_triples());
    EXPECT_EQ(RecomputeFingerprint(*back), back->Fingerprint());
    EXPECT_EQ(SerializeSnapshotBinary(*back), bytes);  // deterministic
  }
}

TEST(SnapshotBinaryFuzzTest, RejectsTruncationAtEveryByteOffset) {
  const std::string bytes = SerializeSnapshotBinary(HostileSnapshot());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto result = DeserializeSnapshotBinary(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "accepted truncation to " << cut << " of "
                              << bytes.size() << " bytes";
  }
}

TEST(SnapshotBinaryFuzzTest, RejectsEveryBitFlipUnderChecksumVerify) {
  const std::string bytes = SerializeSnapshotBinary(HostileSnapshot());
  ASSERT_LT(bytes.size(), 16384u) << "keep the exhaustive flip loop cheap";
  std::string mutated = bytes;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      auto result =
          DeserializeSnapshotBinary(mutated, BinaryVerify::kChecksum);
      EXPECT_FALSE(result.ok())
          << "accepted bit flip at byte " << byte << " bit " << bit;
      mutated[byte] = bytes[byte];
    }
  }
}

TEST(SnapshotBinaryFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(31);
  size_t accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string soup;
    const size_t len = rng.UniformIndex(1200);
    soup.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      soup.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    for (const BinaryVerify verify :
         {BinaryVerify::kHeader, BinaryVerify::kChecksum}) {
      auto result = DeserializeSnapshotBinary(soup, verify);
      if (result.ok()) {
        ++accepted;
        ExerciseSnapshot(*result);
      }
    }
  }
  // Blind garbage essentially never carries the magic + checksums.
  EXPECT_EQ(accepted, 0u);
}

TEST(SnapshotBinaryFuzzTest, MutatedPayloadsServeWithoutCrashingUnderHeaderVerify) {
  const std::string bytes = SerializeSnapshotBinary(ScaleSnapshot());
  Rng rng(37);
  size_t served = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutated = bytes;
    // A burst of byte mutations in the payload (arena offsets, posting
    // bytes, index slots...). The header stays intact, so kHeader-mode
    // structural checks pass and the corrupt content is actually read.
    const int flips = static_cast<int>(rng.UniformInt(1, 24));
    for (int f = 0; f < flips; ++f) {
      const size_t at =
          kBinarySnapshotHeaderSize +
          rng.UniformIndex(mutated.size() - kBinarySnapshotHeaderSize);
      mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    ASSERT_FALSE(
        DeserializeSnapshotBinary(mutated, BinaryVerify::kChecksum).ok() &&
        mutated != bytes)
        << "checksum mode must reject payload mutations";
    auto result = DeserializeSnapshotBinary(mutated, BinaryVerify::kHeader);
    if (result.ok()) {
      ++served;
      ExerciseSnapshot(*result);
    }
  }
  // kHeader mode skips the payload checksum by design, so nearly every
  // mutated payload loads — the point is that serving it is memory-safe.
  EXPECT_GT(served, 300u);
}

TEST(SnapshotBinaryFuzzTest, MutatedHeadersNeverCrash) {
  const std::string bytes = SerializeSnapshotBinary(HostileSnapshot());
  Rng rng(41);
  for (int round = 0; round < 4000; ++round) {
    std::string mutated = bytes;
    const int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.UniformIndex(kBinarySnapshotHeaderSize)] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    for (const BinaryVerify verify :
         {BinaryVerify::kHeader, BinaryVerify::kChecksum}) {
      auto result = DeserializeSnapshotBinary(mutated, verify);
      if (result.ok()) ExerciseSnapshot(*result);
    }
  }
}

TEST(SnapshotBinaryFuzzTest, RejectsOverlappingSectionsEvenWithValidChecksums) {
  // A crafted header can pass every per-section bounds/size/alignment
  // check while aliasing two sections onto the same bytes. That is
  // memory-safe but structurally unsound; the loader must reject it.
  std::string bytes = SerializeSnapshotBinary(HostileSnapshot());
  // Point the predicate arena at the node arena's bytes. Both are
  // free-form byte sections (no size-from-counts or alignment demands),
  // and the node arena is the larger, so every per-section check passes.
  WriteU64At(&bytes, SectionEntry(kSectionPredArena),
             ReadU64At(bytes, SectionEntry(kSectionNodeArena)));
  // The payload bytes are untouched, so the payload checksum stays valid
  // and overlap is the only defect.
  RestampHeaderChecksum(&bytes);
  for (const BinaryVerify verify :
       {BinaryVerify::kHeader, BinaryVerify::kChecksum}) {
    const auto result = DeserializeSnapshotBinary(bytes, verify);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotBinaryFuzzTest, NewerContainerVersionIsUnavailable) {
  std::string bytes = SerializeSnapshotBinary(HostileSnapshot());
  // Container version: little-endian u32 at offset 8.
  bytes[8] = static_cast<char>(kBinarySnapshotContainerVersion + 1);
  RestampHeaderChecksum(&bytes);  // version is the only difference
  const auto result = DeserializeSnapshotBinary(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(SnapshotBinaryFuzzTest, OlderContainerVersionIsRefused) {
  // An older container lays its header out differently, so the version
  // is judged before the header checksum: the refusal names both
  // versions instead of reporting a checksum mismatch.
  const std::string current = SerializeSnapshotBinary(HostileSnapshot());
  for (const uint32_t older : {kBinarySnapshotContainerVersion - 1, 0u}) {
    std::string bytes = current;
    for (int i = 0; i < 4; ++i) {
      bytes[8 + i] = static_cast<char>((older >> (8 * i)) & 0xff);
    }
    for (const BinaryVerify verify :
         {BinaryVerify::kHeader, BinaryVerify::kChecksum}) {
      const auto result = DeserializeSnapshotBinary(bytes, verify);
      ASSERT_FALSE(result.ok()) << older;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      const std::string message = result.status().ToString();
      EXPECT_NE(message.find("container version " + std::to_string(older) +
                             " older than supported " +
                             std::to_string(kBinarySnapshotContainerVersion)),
                std::string::npos)
          << message;
    }
  }
}

TEST(SnapshotBinaryFuzzTest, RejectsPredicateCountSectionOfWrongShape) {
  // PredicateTripleCount indexes the count section by any in-range
  // predicate id, so the section must hold exactly one aligned uint64
  // per predicate; a header claiming otherwise is refused.
  const std::string bytes = SerializeSnapshotBinary(HostileSnapshot());
  const size_t entry = SectionEntry(kSectionPredTripleCounts);
  const uint64_t offset = ReadU64At(bytes, entry);
  const uint64_t size = ReadU64At(bytes, entry + 8);
  ASSERT_GT(size, 8u);
  for (const auto& [new_offset, new_size] :
       {std::pair{offset, size - 8}, std::pair{offset, size + 8},
        std::pair{offset + 4, size}}) {
    std::string mutated = bytes;
    WriteU64At(&mutated, entry, new_offset);
    WriteU64At(&mutated, entry + 8, new_size);
    RestampHeaderChecksum(&mutated);
    const auto result =
        DeserializeSnapshotBinary(mutated, BinaryVerify::kHeader);
    ASSERT_FALSE(result.ok()) << new_offset << " " << new_size;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotBinaryFuzzTest, FileRoundTripPreservesFingerprint) {
  const KgSnapshot snap = ScaleSnapshot();
  const std::string path = ::testing::TempDir() + "/fuzz_roundtrip.snap";
  ASSERT_TRUE(SaveSnapshotBinary(snap, path).ok());
  for (const BinaryVerify verify :
       {BinaryVerify::kHeader, BinaryVerify::kChecksum}) {
    auto loaded = LoadSnapshotBinary(path, verify);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->Fingerprint(), snap.Fingerprint());
    EXPECT_EQ(RecomputeFingerprint(*loaded), snap.Fingerprint());
  }
  EXPECT_FALSE(LoadSnapshotBinary(path + ".missing").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kg::serve
