// Fuzz suite for the store WAL, mirroring graph_serialization_fuzz_test:
// ReplayWalBuffer must survive arbitrary hostile bytes (torn tails, bad
// checksums, zero-length and oversized frames) without crashing, and
// whatever it does recover must be a true prefix of what was written.
// Run it under KG_SANITIZE=undefined/address to make "survive" mean it.

#include "store/wal.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "graph/knowledge_graph.h"

namespace kg::store {
namespace {

using graph::NodeKind;
using graph::Provenance;

// Alphabet skewed toward framing hazards: bytes that look like small
// little-endian lengths, tabs/newlines the TSV payload must escape, NUL
// and high bytes, and fragments of valid-looking records.
std::string RandomToken(Rng& rng) {
  static const std::vector<std::string> kAtoms = {
      std::string(1, '\0'), std::string(4, '\0'),
      "\t", "\n", "\\", "\\t", "\xff\xff\xff\xff", "\x01\x00\x00\x00",
      "\x7f", "\xc3\xa9", "U\t", "R\t", "entity", "class", "text",
      "1.5", "-3", "a", "", ":",
  };
  const size_t len = rng.UniformIndex(7);
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kAtoms[rng.UniformIndex(kAtoms.size())];
  }
  return out;
}

NodeKind RandomKind(Rng& rng) {
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return NodeKind::kEntity;
    case 1:
      return NodeKind::kText;
    default:
      return NodeKind::kClass;
  }
}

Mutation RandomMutation(Rng& rng) {
  if (rng.Bernoulli(0.3)) {
    return Mutation::Retract(RandomToken(rng), RandomToken(rng),
                             RandomToken(rng), RandomKind(rng),
                             RandomKind(rng));
  }
  Provenance prov;
  prov.source = RandomToken(rng);
  prov.confidence = rng.Bernoulli(0.2) ? 1.0 : rng.UniformDouble();
  prov.timestamp = rng.UniformInt(-1000000, 1000000);
  return Mutation::Upsert(RandomToken(rng), RandomToken(rng),
                          RandomToken(rng), RandomKind(rng),
                          RandomKind(rng), std::move(prov));
}

TEST(WalFuzzTest, MutationEncodeDecodeRoundTripsHostileFields) {
  Rng rng(7001);
  for (int i = 0; i < 2000; ++i) {
    const Mutation m = RandomMutation(rng);
    const std::string payload = EncodeMutation(m);
    // Framing safety: the payload itself never contains a newline that
    // could confuse line-oriented tooling reading the log.
    EXPECT_EQ(payload.find('\n'), std::string::npos);
    auto decoded = DecodeMutation(payload);
    ASSERT_TRUE(decoded.ok()) << "iter " << i << ": " << decoded.status();
    ASSERT_EQ(*decoded, m) << "iter " << i;
  }
}

TEST(WalFuzzTest, ReplayArbitraryBytesNeverCrashes) {
  Rng rng(7002);
  for (int i = 0; i < 3000; ++i) {
    std::string garbage;
    const size_t chunks = rng.UniformIndex(40);
    for (size_t c = 0; c < chunks; ++c) garbage += RandomToken(rng);
    const WalReplay replay = ReplayWalBuffer(garbage);
    EXPECT_LE(replay.valid_bytes, garbage.size());
    EXPECT_EQ(replay.valid_bytes + replay.dropped_bytes, garbage.size());
    // Whatever was recovered must decode back from its own encoding —
    // i.e. replay never fabricates an unrepresentable mutation.
    for (const Mutation& m : replay.mutations) {
      auto redecoded = DecodeMutation(EncodeMutation(m));
      ASSERT_TRUE(redecoded.ok());
      ASSERT_EQ(*redecoded, m);
    }
  }
}

TEST(WalFuzzTest, ReplayValidLogWithRandomCorruptionYieldsTruePrefix) {
  Rng rng(7003);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t count = 1 + rng.UniformIndex(10);
    std::vector<Mutation> mutations;
    std::vector<size_t> frame_ends;
    std::string buf;
    for (size_t i = 0; i < count; ++i) {
      mutations.push_back(RandomMutation(rng));
      AppendRecord(&buf, EncodeMutation(mutations.back()));
      frame_ends.push_back(buf.size());
    }
    // One of: byte flip, truncation, or garbage appended at a random spot.
    const size_t pos = rng.UniformIndex(buf.size());
    const int mode = static_cast<int>(rng.UniformInt(0, 2));
    if (mode == 0) {
      buf[pos] = static_cast<char>(buf[pos] ^ (1 + rng.UniformIndex(255)));
    } else if (mode == 1) {
      buf.resize(pos);
    } else {
      buf.insert(pos, RandomToken(rng) + std::string(1, '\x00'));
    }
    const WalReplay replay = ReplayWalBuffer(buf);
    // Frames strictly before the damage are untouched: they must all be
    // recovered verbatim, in order.
    size_t intact = 0;
    while (intact < frame_ends.size() && frame_ends[intact] <= pos) {
      ++intact;
    }
    ASSERT_GE(replay.mutations.size(), intact) << "iter " << iter;
    for (size_t i = 0; i < intact; ++i) {
      ASSERT_EQ(replay.mutations[i], mutations[i])
          << "iter " << iter << ", record " << i;
    }
    EXPECT_LE(replay.valid_bytes, buf.size());
  }
}

TEST(WalFuzzTest, OversizedDeclaredLengthIsRejectedNotBelieved) {
  // A header declaring a payload far larger than the file must stop the
  // replay rather than read out of bounds or allocate the declared size.
  std::string buf;
  AppendRecord(&buf, EncodeMutation(Mutation::Retract(
                           "s", "p", "o", NodeKind::kEntity,
                           NodeKind::kEntity)));
  const size_t valid = buf.size();
  // length = 0xFFFFFFFF, checksum = whatever.
  buf += std::string("\xff\xff\xff\xff\x00\x00\x00\x00", 8);
  buf += "trailing";
  const WalReplay replay = ReplayWalBuffer(buf);
  EXPECT_EQ(replay.mutations.size(), 1u);
  EXPECT_EQ(replay.valid_bytes, valid);
  EXPECT_FALSE(replay.clean);
}

}  // namespace
}  // namespace kg::store
