// Fuzz suite for the store WAL: ReplayWalBuffer must survive arbitrary
// hostile bytes (torn tails, bad checksums, zero-length and oversized
// records) without crashing, whatever it does recover must be a true
// prefix of what was written, and the commit decoder must refuse every
// malformed payload it is handed — counts that run past the payload, cut
// mutations, out-of-range op and kind bytes, trailing bytes, empty
// commits — while every payload it accepts re-encodes to itself. Run it
// under KG_SANITIZE=undefined/address to make "survive" mean it.

#include "store/wal.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
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
// little-endian lengths, NUL and high bytes, separators and fragments of
// the text records an older log held.
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

std::vector<Mutation> RandomCommit(Rng& rng) {
  std::vector<Mutation> commit(1 + rng.UniformIndex(8));
  for (Mutation& m : commit) m = RandomMutation(rng);
  return commit;
}

std::string CommitPayload(const std::vector<Mutation>& commit) {
  auto payload = EncodeCommit(commit);
  EXPECT_TRUE(payload.ok()) << payload.status();
  return payload.ok() ? *payload : std::string();
}

/// encode(decode(x)) == x for a payload the decoder accepted.
void ExpectReencodesToItself(std::string_view payload) {
  auto decoded = DecodeCommit(payload);
  if (!decoded.ok()) return;
  auto reencoded = EncodeCommit(*decoded);
  ASSERT_TRUE(reencoded.ok()) << reencoded.status();
  ASSERT_EQ(*reencoded, payload);
}

TEST(WalFuzzTest, MutationEncodeDecodeRoundTripsHostileFields) {
  Rng rng(7001);
  for (int i = 0; i < 2000; ++i) {
    const Mutation m = RandomMutation(rng);
    const std::string payload = CommitPayload({m});
    auto decoded = DecodeCommit(payload);
    ASSERT_TRUE(decoded.ok()) << "iter " << i << ": " << decoded.status();
    ASSERT_EQ(decoded->size(), 1u) << "iter " << i;
    ASSERT_EQ((*decoded)[0], m) << "iter " << i;
    ExpectReencodesToItself(payload);
  }
}

// The confidence travels as its IEEE-754 bit pattern, so every double —
// signed zeros, subnormals, infinities, NaN payloads — comes back
// bit-identical.
TEST(WalFuzzTest, ConfidenceTravelsAsItsBitPattern) {
  Rng rng(7006);
  std::vector<uint64_t> patterns = {
      std::bit_cast<uint64_t>(0.0),
      std::bit_cast<uint64_t>(-0.0),
      std::bit_cast<uint64_t>(std::numeric_limits<double>::denorm_min()),
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity()),
      std::bit_cast<uint64_t>(-std::numeric_limits<double>::infinity()),
      std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN()),
      0x7ff0000000000001ull,  // Signalling NaN with a payload.
      0xfff8dead0000beefull,
  };
  for (int i = 0; i < 200; ++i) {
    patterns.push_back(static_cast<uint64_t>(
        rng.UniformInt(std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max())));
  }
  for (const uint64_t bits : patterns) {
    Mutation m = Mutation::Upsert("s", "p", "o", NodeKind::kEntity,
                                  NodeKind::kText,
                                  Provenance{"src", 0.0, -1});
    m.prov.confidence = std::bit_cast<double>(bits);
    auto decoded = DecodeCommit(CommitPayload({m}));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ(std::bit_cast<uint64_t>((*decoded)[0].prov.confidence), bits);
  }
}

TEST(WalFuzzTest, CommitEncodeDecodeRoundTrips) {
  Rng rng(7004);
  for (int i = 0; i < 500; ++i) {
    const std::vector<Mutation> commit = RandomCommit(rng);
    const std::string payload = CommitPayload(commit);
    auto decoded = DecodeCommit(payload);
    ASSERT_TRUE(decoded.ok()) << "iter " << i << ": " << decoded.status();
    ASSERT_EQ(*decoded, commit) << "iter " << i;
    ExpectReencodesToItself(payload);
  }
}

TEST(WalFuzzTest, CommitDecoderRefusesMalformedPayloads) {
  Rng rng(7005);
  for (int iter = 0; iter < 200; ++iter) {
    const std::vector<Mutation> commit = RandomCommit(rng);
    const std::string payload = CommitPayload(commit);
    const std::string body = payload.substr(4);

    // A count that runs past the payload: the mutations are decoded one
    // at a time, so even a count near 2^32 reserves nothing up front.
    for (const uint32_t count :
         {static_cast<uint32_t>(commit.size() + 1), 0xffffffffu}) {
      std::string over;
      PutU32(&over, count);
      ASSERT_FALSE(DecodeCommit(over + body).ok()) << "count " << count;
    }
    // A zero count is no commit, whatever follows it.
    std::string zero;
    PutU32(&zero, 0);
    ASSERT_FALSE(DecodeCommit(zero).ok());
    ASSERT_FALSE(DecodeCommit(zero + body).ok());
    // A mutation cut short anywhere inside the record.
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      ASSERT_FALSE(DecodeCommit(payload.substr(0, cut)).ok())
          << "iter " << iter << ", cut " << cut;
    }
    // Trailing bytes after the last mutation.
    ASSERT_FALSE(DecodeCommit(payload + std::string(1, '\0')).ok());

    // Op and kind bytes out of range, at the first mutation's positions.
    const Mutation& first = commit[0];
    const size_t op_at = 4;
    const size_t subject_kind_at = op_at + 1 + 4 + first.subject.size();
    const size_t object_kind_at = subject_kind_at + 1 + 4 +
                                  first.predicate.size() + 4 +
                                  first.object.size();
    for (const size_t at : {op_at, subject_kind_at, object_kind_at}) {
      const int lowest_bad = at == op_at ? 2 : 3;
      for (int v = lowest_bad; v < 256; v += 1 + rng.UniformIndex(40)) {
        std::string bad = payload;
        bad[at] = static_cast<char>(v);
        ASSERT_FALSE(DecodeCommit(bad).ok()) << "byte " << at << " = " << v;
      }
    }
  }
}

// Every payload the decoder accepts — from random bytes or from a valid
// commit with one byte changed — re-encodes to exactly those bytes.
TEST(WalFuzzTest, AcceptedPayloadsReencodeToThemselves) {
  Rng rng(7007);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage;
    PutU32(&garbage, static_cast<uint32_t>(rng.UniformIndex(4)));
    const size_t chunks = rng.UniformIndex(30);
    for (size_t c = 0; c < chunks; ++c) garbage += RandomToken(rng);
    ExpectReencodesToItself(garbage);

    std::string flipped = CommitPayload(RandomCommit(rng));
    const size_t pos = rng.UniformIndex(flipped.size());
    flipped[pos] =
        static_cast<char>(flipped[pos] ^ (1 + rng.UniformIndex(255)));
    ExpectReencodesToItself(flipped);
  }
}

TEST(WalFuzzTest, ReplayArbitraryBytesNeverCrashes) {
  Rng rng(7002);
  for (int i = 0; i < 3000; ++i) {
    std::string garbage;
    const size_t chunks = rng.UniformIndex(40);
    for (size_t c = 0; c < chunks; ++c) garbage += RandomToken(rng);
    auto replay = ReplayWalBuffer(garbage);
    if (!replay.ok()) continue;  // A whole record that does not decode.
    EXPECT_LE(replay->valid_bytes, garbage.size());
    EXPECT_EQ(replay->valid_bytes + replay->dropped_bytes, garbage.size());
    // Whatever was recovered must decode back from its own encoding —
    // i.e. replay never fabricates an unrepresentable commit.
    for (const std::vector<Mutation>& commit : replay->commits) {
      auto redecoded = DecodeCommit(CommitPayload(commit));
      ASSERT_TRUE(redecoded.ok());
      ASSERT_EQ(*redecoded, commit);
    }
  }
}

TEST(WalFuzzTest, ReplayValidLogWithRandomCorruptionYieldsTruePrefix) {
  Rng rng(7003);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t count = 1 + rng.UniformIndex(10);
    std::vector<std::vector<Mutation>> commits;
    std::vector<size_t> record_ends;
    std::string buf;
    for (size_t i = 0; i < count; ++i) {
      commits.push_back(RandomCommit(rng));
      AppendRecord(&buf, CommitPayload(commits.back()));
      record_ends.push_back(buf.size());
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
    auto replay = ReplayWalBuffer(buf);
    // Damage can only make a record past `pos` whole-but-undecodable,
    // which the scan refuses; the records before it decode as written.
    if (!replay.ok()) continue;
    // Records strictly before the damage are untouched: they must all be
    // recovered verbatim, in order.
    size_t intact = 0;
    while (intact < record_ends.size() && record_ends[intact] <= pos) {
      ++intact;
    }
    ASSERT_GE(replay->commits.size(), intact) << "iter " << iter;
    for (size_t i = 0; i < intact; ++i) {
      ASSERT_EQ(replay->commits[i], commits[i])
          << "iter " << iter << ", commit " << i;
    }
    EXPECT_LE(replay->valid_bytes, buf.size());
  }
}

TEST(WalFuzzTest, OversizedDeclaredLengthIsRejectedNotBelieved) {
  // A header declaring a payload far larger than the file must stop the
  // replay rather than read out of bounds or allocate the declared size.
  std::string buf;
  AppendRecord(&buf, CommitPayload({Mutation::Retract(
                         "s", "p", "o", NodeKind::kEntity,
                         NodeKind::kEntity)}));
  const size_t valid = buf.size();
  // length = 0xFFFFFFFF, checksum = whatever.
  buf += std::string("\xff\xff\xff\xff\x00\x00\x00\x00", 8);
  buf += "trailing";
  auto replay = ReplayWalBuffer(buf);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->commits.size(), 1u);
  EXPECT_EQ(replay->valid_bytes, valid);
  EXPECT_FALSE(replay->clean);
}

}  // namespace
}  // namespace kg::store
