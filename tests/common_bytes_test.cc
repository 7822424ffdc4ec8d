// The shared byte codec behind the WAL, the RPC wire, the shipping log
// and the binary containers: little-endian integers and strings that
// round-trip at their edges, a reader that fails cleanly at every
// truncation instead of reading past the end, and a checksummed-record
// scanner that never mistakes a prefix or a flipped bit for a record.

#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace kg {
namespace {

TEST(BytesTest, IntegersRoundTripAtTheirEdges) {
  std::string buf;
  const std::vector<uint8_t> u8s = {0, 1, 0xff};
  const std::vector<uint16_t> u16s = {0, 1, 0xffff};
  const std::vector<uint32_t> u32s = {0, 1, 0xffffffffu};
  const std::vector<uint64_t> u64s = {0, 1,
                                      std::numeric_limits<uint64_t>::max()};
  for (uint8_t v : u8s) PutU8(&buf, v);
  for (uint16_t v : u16s) PutU16(&buf, v);
  for (uint32_t v : u32s) PutU32(&buf, v);
  for (uint64_t v : u64s) PutU64(&buf, v);
  ASSERT_EQ(buf.size(), 3 * (1 + 2 + 4 + 8));

  ByteReader reader(buf);
  for (uint8_t v : u8s) EXPECT_EQ(*reader.TakeU8(), v);
  for (uint16_t v : u16s) EXPECT_EQ(*reader.TakeU16(), v);
  for (uint32_t v : u32s) EXPECT_EQ(*reader.TakeU32(), v);
  for (uint64_t v : u64s) EXPECT_EQ(*reader.TakeU64(), v);
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(BytesTest, IntegersAreLittleEndian) {
  std::string buf;
  PutU16(&buf, 0x0102);
  PutU32(&buf, 0x03040506u);
  PutU64(&buf, 0x0708090a0b0c0d0eULL);
  const std::string expected(
      "\x02\x01"
      "\x06\x05\x04\x03"
      "\x0e\x0d\x0c\x0b\x0a\x09\x08\x07",
      14);
  EXPECT_EQ(buf, expected);
  EXPECT_EQ(LoadU32(buf.data() + 2), 0x03040506u);
  EXPECT_EQ(LoadU64(buf.data() + 6), 0x0708090a0b0c0d0eULL);
}

TEST(BytesTest, StringsRoundTripAtEveryLengthClass) {
  std::vector<std::string> strings;
  for (size_t len : {0u, 1u, 255u, 256u, 65536u}) {
    std::string s(len, '\0');
    for (size_t i = 0; i < len; ++i) s[i] = static_cast<char>(i * 7 + 3);
    strings.push_back(std::move(s));
  }
  strings.push_back(std::string("a\0b\nc\0", 6));
  strings.push_back("\n\n");
  strings.push_back(std::string(3, '\0'));

  std::string buf;
  for (const std::string& s : strings) PutString(&buf, s);
  ByteReader reader(buf);
  for (const std::string& s : strings) {
    const Result<std::string> got = reader.TakeString();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, s);
  }
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

/// One field of every kind, in the order DecodeAll takes them back.
std::string EncodeAll() {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU16(&buf, 0xbeef);
  PutString(&buf, std::string("x\0y\n", 4));
  PutU32(&buf, 0xdeadbeefu);
  PutU64(&buf, 0x0123456789abcdefULL);
  PutString(&buf, "");
  return buf;
}

Status DecodeAll(std::string_view data) {
  ByteReader reader(data);
  KG_ASSIGN_OR_RETURN(const uint8_t a, reader.TakeU8());
  KG_ASSIGN_OR_RETURN(const uint16_t b, reader.TakeU16());
  KG_ASSIGN_OR_RETURN(const std::string c, reader.TakeString());
  KG_ASSIGN_OR_RETURN(const uint32_t d, reader.TakeU32());
  KG_ASSIGN_OR_RETURN(const uint64_t e, reader.TakeU64());
  KG_ASSIGN_OR_RETURN(const std::string f, reader.TakeString());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  if (a != 0xab || b != 0xbeef || c != std::string("x\0y\n", 4) ||
      d != 0xdeadbeefu || e != 0x0123456789abcdefULL || !f.empty()) {
    return Status::Internal("decoded the wrong values");
  }
  return Status::OK();
}

TEST(BytesTest, EveryTruncationFailsCleanly) {
  const std::string full = EncodeAll();
  ASSERT_TRUE(DecodeAll(full).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    // A heap copy of exactly `cut` bytes: a read past its end is an
    // out-of-bounds access the sanitizer builds report.
    const std::string prefix = full.substr(0, cut);
    const Status status = DecodeAll(prefix);
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "cut=" << cut;
    EXPECT_NE(status.message().find("truncated"), std::string::npos)
        << status;
  }
}

TEST(BytesTest, StringLengthPastTheEndIsRefusedBeforeCopying) {
  std::string buf;
  PutU32(&buf, 0xffffffffu);  // Promises 4 GiB; three bytes follow.
  buf += "abc";
  ByteReader reader(buf);
  const Result<std::string> got = reader.TakeString();
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("string body"), std::string::npos);

  std::string exact;
  PutU32(&exact, 4);
  exact += "abc";  // One byte short of the declared length.
  ByteReader short_reader(exact);
  EXPECT_FALSE(short_reader.TakeString().ok());
}

TEST(BytesTest, ExpectEndRejectsTrailingBytes) {
  std::string buf;
  PutU32(&buf, 7);
  buf.push_back('\0');
  ByteReader reader(buf);
  ASSERT_TRUE(reader.TakeU32().ok());
  const Status status = reader.ExpectEnd();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("trailing bytes"), std::string::npos);
  ASSERT_TRUE(reader.TakeU8().ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(BytesTest, TakeBytesViewsWithoutCopyingAndChecksBounds) {
  const std::string buf = "hello";
  ByteReader reader(buf);
  const Result<std::string_view> head = reader.TakeBytes(2);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, "he");
  EXPECT_EQ(head->data(), buf.data());
  EXPECT_EQ(reader.pos(), 2u);
  EXPECT_EQ(reader.remaining(), 3u);
  EXPECT_FALSE(reader.TakeBytes(4).ok());
  EXPECT_EQ(reader.pos(), 2u);  // A failed take consumes nothing.
  EXPECT_TRUE(reader.TakeBytes(3).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(RecordTest, AppendWritesLengthChecksumPayload) {
  std::string buf;
  AppendRecord(&buf, "abc");
  ASSERT_EQ(buf.size(), kRecordHeaderBytes + 3);
  EXPECT_EQ(LoadU32(buf.data()), 3u);
  EXPECT_EQ(LoadU32(buf.data() + 4), Checksum32("abc"));
  EXPECT_EQ(buf.substr(kRecordHeaderBytes), "abc");

  const RecordScan scan = ScanRecord(buf);
  ASSERT_EQ(scan.step, RecordStep::kRecord);
  EXPECT_EQ(scan.length, 3u);
  EXPECT_EQ(scan.payload, "abc");
  EXPECT_EQ(scan.size(), buf.size());
}

TEST(RecordTest, ScansBackToBackRecordsIncludingEmptyOnes) {
  const std::vector<std::string> payloads = {"", "one", std::string(300, 'x'),
                                             ""};
  std::string buf;
  for (const std::string& p : payloads) AppendRecord(&buf, p);
  size_t offset = 0;
  for (const std::string& p : payloads) {
    const RecordScan scan = ScanRecord(std::string_view(buf).substr(offset));
    ASSERT_EQ(scan.step, RecordStep::kRecord);
    EXPECT_EQ(scan.payload, p);
    offset += scan.size();
  }
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(ScanRecord(std::string_view(buf).substr(offset)).step,
            RecordStep::kNeedMore);
}

TEST(RecordTest, EveryPrefixNeedsMore) {
  std::string buf;
  AppendRecord(&buf, std::string("payload\0with\nbytes", 18));
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const std::string prefix = buf.substr(0, cut);
    EXPECT_EQ(ScanRecord(prefix).step, RecordStep::kNeedMore)
        << "cut=" << cut;
  }
  EXPECT_EQ(ScanRecord(buf).step, RecordStep::kRecord);
}

TEST(RecordTest, NoSingleBitFlipReadsAsARecord) {
  std::string record;
  AppendRecord(&record, "a record whose every bit is load-bearing");
  size_t refused = 0;
  for (size_t bit = 0; bit < record.size() * 8; ++bit) {
    std::string flipped = record;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const RecordScan scan = ScanRecord(flipped);
    // A flipped length bit may promise more bytes than are here (need
    // more) or a length the header refuses; every other flip fails the
    // checksum. None may yield a record.
    EXPECT_NE(scan.step, RecordStep::kRecord) << "bit=" << bit;
    if (scan.step != RecordStep::kNeedMore) ++refused;
  }
  EXPECT_GT(refused, 0u);
}

TEST(RecordTest, LengthPastTheCapIsRefusedFromTheHeaderAlone) {
  std::string header;
  PutU32(&header, kMaxRecordBytes + 1);
  PutU32(&header, 0);
  // Only the 8 header bytes exist: the verdict cannot wait for a payload
  // that would never be believed.
  RecordScan scan = ScanRecord(header);
  EXPECT_EQ(scan.step, RecordStep::kTooLong);
  EXPECT_EQ(scan.length, kMaxRecordBytes + 1);

  std::string at_cap;
  PutU32(&at_cap, kMaxRecordBytes);
  PutU32(&at_cap, 0);
  EXPECT_EQ(ScanRecord(at_cap).step, RecordStep::kNeedMore);
}

TEST(RecordTest, LengthBelowTheCallersMinimumIsRefusedFromTheHeader) {
  std::string header;
  PutU32(&header, 3);
  PutU32(&header, 0);
  EXPECT_EQ(ScanRecord(header, /*min_payload=*/8).step,
            RecordStep::kTooShort);
  EXPECT_EQ(ScanRecord(header).step, RecordStep::kNeedMore);
}

}  // namespace
}  // namespace kg
