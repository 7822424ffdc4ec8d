// Property battery for the canonical varint codec and the edge-row
// encoding the snapshot posting format is built on. The central
// property is strict canonicality: every decodable byte string has
// exactly one value AND exactly one encoding, so encode(decode(bytes))
// == bytes holds for any byte soup the decoder accepts — the invariant
// that makes the binary snapshot format fuzzable (a mutation either
// changes the decoded answer or is rejected; it can never alias).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/snapshot.h"
#include "serve/varint.h"

namespace kg::serve {
namespace {

std::string Encode(uint64_t v) {
  std::string out;
  AppendVarint(&out, v);
  return out;
}

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

TEST(VarintTest, RoundTripsAdversarialValues) {
  const std::vector<uint64_t> values = {
      0,
      1,
      127,
      128,
      129,
      16383,
      16384,
      (1ULL << 32) - 1,
      1ULL << 32,
      (1ULL << 63) - 1,
      1ULL << 63,
      std::numeric_limits<uint64_t>::max() - 1,
      std::numeric_limits<uint64_t>::max(),
  };
  for (const uint64_t v : values) {
    const std::string bytes = Encode(v);
    ASSERT_LE(bytes.size(), kMaxVarintBytes);
    uint64_t out = 0;
    ASSERT_EQ(DecodeVarint(Bytes(bytes), Bytes(bytes) + bytes.size(), &out),
              bytes.size())
        << v;
    EXPECT_EQ(out, v);
  }
}

TEST(VarintTest, RandomValuesRoundTripAndAreMinimal) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    // Stress every byte-length class, not just the 8-byte-heavy uniform
    // distribution: pick a bit width first.
    const int bits = static_cast<int>(rng.UniformInt(0, 63));
    const uint64_t v =
        static_cast<uint64_t>(rng.UniformInt(0, (1LL << 62) - 1)) &
        ((bits == 0 ? 0 : ~0ULL >> (64 - bits)));
    const std::string bytes = Encode(v);
    uint64_t out = 0;
    ASSERT_EQ(DecodeVarint(Bytes(bytes), Bytes(bytes) + bytes.size(), &out),
              bytes.size());
    ASSERT_EQ(out, v);
  }
}

TEST(VarintTest, RejectsTruncation) {
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{300}, uint64_t{1} << 40,
        std::numeric_limits<uint64_t>::max()}) {
    const std::string bytes = Encode(v);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      uint64_t out = 0;
      EXPECT_EQ(DecodeVarint(Bytes(bytes), Bytes(bytes) + cut, &out), 0u)
          << "value " << v << " truncated to " << cut << " bytes";
    }
  }
}

TEST(VarintTest, RejectsOverlongEncodings) {
  // 0 encoded in two bytes (continuation + zero group) and every other
  // trailing-zero-group form must be rejected: canonical means minimal.
  const std::vector<std::string> overlong = {
      std::string("\x80\x00", 2),
      std::string("\xff\x00", 2),
      std::string("\x80\x80\x00", 3),
  };
  for (const std::string& bytes : overlong) {
    uint64_t out = 0;
    EXPECT_EQ(DecodeVarint(Bytes(bytes), Bytes(bytes) + bytes.size(), &out),
              0u);
  }
}

TEST(VarintTest, RejectsOverflowPastUint64) {
  // 10 continuation groups with a 10th group > 1 would need bit 64+.
  std::string bytes(9, '\x80');
  bytes.push_back('\x02');
  uint64_t out = 0;
  EXPECT_EQ(DecodeVarint(Bytes(bytes), Bytes(bytes) + bytes.size(), &out),
            0u);
  // ...while exactly bit 63 in the 10th group is the max value, valid.
  bytes.back() = '\x01';
  std::string max_enc = Encode(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(max_enc.back(), '\x01');
}

TEST(VarintTest, EncodeOfDecodeIsIdentityOnRandomByteSoup) {
  Rng rng(23);
  size_t decoded = 0;
  for (int i = 0; i < 50000; ++i) {
    std::string soup;
    const int len = static_cast<int>(rng.UniformInt(1, 12));
    for (int b = 0; b < len; ++b) {
      soup.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    uint64_t value = 0;
    const size_t n =
        DecodeVarint(Bytes(soup), Bytes(soup) + soup.size(), &value);
    if (n == 0) continue;
    ++decoded;
    // Whatever decoded must re-encode to exactly the consumed bytes.
    EXPECT_EQ(Encode(value), soup.substr(0, n));
  }
  EXPECT_GT(decoded, 1000u);  // the property must actually get exercised
}

TEST(EdgeRowTest, RoundTripsSeededRows) {
  Rng rng(13);
  for (int round = 0; round < 100; ++round) {
    std::vector<KgSnapshot::Edge> edges;
    const size_t len = rng.UniformIndex(64);
    uint32_t first = 0, second = 0;
    for (size_t i = 0; i < len; ++i) {
      const uint32_t d1 = static_cast<uint32_t>(rng.UniformInt(0, 3));
      first += d1;
      second = d1 == 0 ? second + static_cast<uint32_t>(rng.UniformInt(0, 50))
                       : static_cast<uint32_t>(rng.UniformInt(0, 1 << 20));
      edges.push_back({first, second});
    }
    std::string bytes;
    AppendEdgeRow(&bytes, edges);
    if (edges.empty()) {
      EXPECT_TRUE(bytes.empty());
    }

    // EdgeRange, the decoder every read walks, gives back the row.
    const uint8_t* p = Bytes(bytes);
    const KgSnapshot::EdgeRange range(p, p + bytes.size());
    const std::vector<KgSnapshot::Edge> back(range.begin(), range.end());
    EXPECT_EQ(back, edges) << "round " << round;
    EXPECT_EQ(range.size(), edges.size());
  }
}

TEST(EdgeRowTest, EdgeRangeNeverCrashesOnByteSoup) {
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    std::string soup;
    const int len = static_cast<int>(rng.UniformInt(0, 40));
    for (int b = 0; b < len; ++b) {
      soup.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    const uint8_t* p = Bytes(soup);
    const KgSnapshot::EdgeRange range(p, p + soup.size());
    size_t n = 0;
    for (const KgSnapshot::Edge& e : range) {
      (void)e;
      if (++n > soup.size()) break;  // decoded edges are bounded by bytes
    }
    EXPECT_LE(n, range.size());
  }
}

}  // namespace
}  // namespace kg::serve
