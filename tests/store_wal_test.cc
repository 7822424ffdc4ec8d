// kg::store WAL: framed record encode/decode round-trips, and the
// truncation-tolerance contract — a log cut at *every* byte boundary
// recovers exactly the fully-written records, and Open() truncates a
// torn tail so later appends extend the valid prefix.

#include "store/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/knowledge_graph.h"

namespace kg::store {
namespace {

using graph::NodeKind;
using graph::Provenance;

std::vector<Mutation> SampleMutations() {
  return {
      Mutation::Upsert("alice", "knows", "bob", NodeKind::kEntity,
                       NodeKind::kEntity, Provenance{"src_a", 0.875, 11}),
      Mutation::Retract("alice", "knows", "bob", NodeKind::kEntity,
                        NodeKind::kEntity),
      Mutation::Upsert("tab\there", "line\nbreak", "back\\slash",
                       NodeKind::kText, NodeKind::kClass,
                       Provenance{"\\t literal", 0.1234567890123456789, -3}),
      Mutation::Upsert("", "", "", NodeKind::kClass, NodeKind::kText,
                       Provenance{"", 1.0, 0}),
      Mutation::Upsert("h\xc3\xa9llo", "p", "w\xc3\xb6rld",
                       NodeKind::kEntity, NodeKind::kText,
                       Provenance{"fusion", 1e-17, 1 << 30}),
  };
}

std::string FrameAll(const std::vector<Mutation>& mutations,
                     std::vector<size_t>* frame_ends = nullptr) {
  std::string buf;
  for (const Mutation& m : mutations) {
    AppendRecord(&buf, EncodeMutation(m));
    if (frame_ends != nullptr) frame_ends->push_back(buf.size());
  }
  return buf;
}

/// A unique temp path per test; removed on destruction.
struct TempWal {
  std::string path;
  explicit TempWal(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("kg_store_wal_test_" + tag + ".wal"))
               .string();
    std::filesystem::remove(path);
  }
  ~TempWal() { std::filesystem::remove(path); }
};

TEST(WalTest, EncodeDecodeRoundTripsHostileMutations) {
  for (const Mutation& m : SampleMutations()) {
    const std::string payload = EncodeMutation(m);
    EXPECT_EQ(payload.find('\n'), std::string::npos);
    auto decoded = DecodeMutation(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, m);
    // Determinism: equal mutations encode byte-identically.
    EXPECT_EQ(EncodeMutation(*decoded), payload);
  }
}

TEST(WalTest, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(DecodeMutation("").ok());
  EXPECT_FALSE(DecodeMutation("U\ta\tentity").ok());  // too few fields
  EXPECT_FALSE(
      DecodeMutation("X\ts\tentity\tp\to\tentity\tsrc\t1\t0").ok());
  EXPECT_FALSE(
      DecodeMutation("U\ts\tmartian\tp\to\tentity\tsrc\t1\t0").ok());
  EXPECT_FALSE(
      DecodeMutation("U\ts\tentity\tp\to\tentity\tsrc\tnope\t0").ok());
  EXPECT_FALSE(
      DecodeMutation("U\ts\tentity\tp\to\tentity\tsrc\t1\tnope").ok());
}

TEST(WalTest, ReplayBufferRecoversAllRecordsCleanly) {
  const std::vector<Mutation> mutations = SampleMutations();
  const std::string buf = FrameAll(mutations);
  const WalReplay replay = ReplayWalBuffer(buf);
  EXPECT_TRUE(replay.clean);
  EXPECT_EQ(replay.valid_bytes, buf.size());
  EXPECT_EQ(replay.dropped_bytes, 0u);
  ASSERT_EQ(replay.mutations.size(), mutations.size());
  for (size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_EQ(replay.mutations[i], mutations[i]) << "record " << i;
  }
}

// frame_offsets is the catch-up contract: replaying the suffix from
// frame_offsets[i] yields exactly mutations[i..], bit-identically — the
// property a replica resuming a WAL subscription from a persisted byte
// offset depends on.
TEST(WalTest, ReplayFromAnyFrameOffsetResumesBitIdentically) {
  const std::vector<Mutation> mutations = SampleMutations();
  const std::string buf = FrameAll(mutations);
  const WalReplay full = ReplayWalBuffer(buf);
  ASSERT_TRUE(full.clean);
  ASSERT_EQ(full.frame_offsets.size(), mutations.size());
  EXPECT_EQ(full.frame_offsets.front(), 0u);

  for (size_t i = 0; i < full.frame_offsets.size(); ++i) {
    const uint64_t offset = full.frame_offsets[i];
    const WalReplay suffix =
        ReplayWalBuffer(std::string_view(buf).substr(offset));
    ASSERT_TRUE(suffix.clean) << "offset " << offset;
    EXPECT_EQ(suffix.valid_bytes, buf.size() - offset);
    ASSERT_EQ(suffix.mutations.size(), mutations.size() - i);
    for (size_t j = 0; j < suffix.mutations.size(); ++j) {
      EXPECT_EQ(suffix.mutations[j], mutations[i + j]);
      // The suffix's own offsets are the full log's, rebased.
      EXPECT_EQ(suffix.frame_offsets[j] + offset, full.frame_offsets[i + j]);
    }
    // Re-encoding the resumed records reproduces the suffix bytes.
    std::string reframed;
    for (const Mutation& m : suffix.mutations) {
      AppendRecord(&reframed, EncodeMutation(m));
    }
    EXPECT_EQ(reframed, buf.substr(offset));
  }

  // Same resume point through a file: Wal::Replay reports the offsets
  // of what it recovered, and the on-disk suffix replays identically.
  TempWal tmp("resume_offset");
  {
    auto wal = Wal::Open(tmp.path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->AppendBatch(mutations).ok());
  }
  auto replay = Wal::Replay(tmp.path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->frame_offsets, full.frame_offsets);
  std::ifstream in(tmp.path, std::ios::binary);
  const std::string file_bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  EXPECT_EQ(file_bytes, buf);
}

// The acceptance criterion: cut the log at every byte boundary; the
// replay must recover exactly the records whose frames are fully inside
// the cut, and valid_bytes must equal the end of the last such frame.
TEST(WalTest, TruncationAtEveryByteBoundaryRecoversValidPrefix) {
  const std::vector<Mutation> mutations = SampleMutations();
  std::vector<size_t> frame_ends;
  const std::string buf = FrameAll(mutations, &frame_ends);
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    const WalReplay replay =
        ReplayWalBuffer(std::string_view(buf).substr(0, cut));
    size_t expect_records = 0;
    size_t expect_valid = 0;
    while (expect_records < frame_ends.size() &&
           frame_ends[expect_records] <= cut) {
      expect_valid = frame_ends[expect_records];
      ++expect_records;
    }
    ASSERT_EQ(replay.mutations.size(), expect_records) << "cut " << cut;
    ASSERT_EQ(replay.valid_bytes, expect_valid) << "cut " << cut;
    ASSERT_EQ(replay.clean, cut == expect_valid) << "cut " << cut;
    for (size_t i = 0; i < expect_records; ++i) {
      ASSERT_EQ(replay.mutations[i], mutations[i])
          << "cut " << cut << ", record " << i;
    }
  }
}

TEST(WalTest, CorruptedChecksumStopsReplayAtThatRecord) {
  const std::vector<Mutation> mutations = SampleMutations();
  std::vector<size_t> frame_ends;
  std::string buf = FrameAll(mutations, &frame_ends);
  // Flip one payload byte of the third record (frames 0 and 1 intact).
  buf[frame_ends[1] + 8] ^= 0x40;
  const WalReplay replay = ReplayWalBuffer(buf);
  EXPECT_FALSE(replay.clean);
  ASSERT_EQ(replay.mutations.size(), 2u);
  EXPECT_EQ(replay.valid_bytes, frame_ends[1]);
  EXPECT_EQ(replay.mutations[0], mutations[0]);
  EXPECT_EQ(replay.mutations[1], mutations[1]);
}

TEST(WalTest, ZeroLengthFrameIsATornTail) {
  const std::vector<Mutation> mutations = SampleMutations();
  std::vector<size_t> frame_ends;
  std::string buf = FrameAll(mutations, &frame_ends);
  // A zero-length frame with a "valid" checksum of the empty payload:
  // the frame parses but the empty payload does not decode, so replay
  // treats it as the start of a torn tail.
  AppendRecord(&buf, "");
  const WalReplay replay = ReplayWalBuffer(buf);
  EXPECT_FALSE(replay.clean);
  EXPECT_EQ(replay.mutations.size(), mutations.size());
  EXPECT_EQ(replay.valid_bytes, frame_ends.back());
}

TEST(WalTest, AppendReplayRoundTripsThroughAFile) {
  TempWal tmp("roundtrip");
  const std::vector<Mutation> mutations = SampleMutations();
  {
    auto wal = Wal::Open(tmp.path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (const Mutation& m : mutations) {
      ASSERT_TRUE(wal->Append(m).ok());
    }
    EXPECT_EQ(wal->size_bytes(), std::filesystem::file_size(tmp.path));
  }
  auto replay = Wal::Replay(tmp.path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->clean);
  ASSERT_EQ(replay->mutations.size(), mutations.size());
  for (size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_EQ(replay->mutations[i], mutations[i]);
  }
}

TEST(WalTest, OpenTruncatesTornTailAndAppendsExtendValidPrefix) {
  TempWal tmp("torn");
  const std::vector<Mutation> mutations = SampleMutations();
  {
    auto wal = Wal::Open(tmp.path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE(wal->AppendBatch(mutations).ok());
  }
  const auto full_size = std::filesystem::file_size(tmp.path);
  // Simulate a crash mid-append: a valid header promising more bytes
  // than were written.
  {
    std::ofstream out(tmp.path, std::ios::binary | std::ios::app);
    std::string torn;
    AppendRecord(&torn, EncodeMutation(mutations[0]));
    out.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }
  ASSERT_GT(std::filesystem::file_size(tmp.path), full_size);

  WalReplay replay;
  auto wal = Wal::Open(tmp.path, &replay);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(replay.mutations.size(), mutations.size());
  EXPECT_GT(replay.dropped_bytes, 0u);
  // The torn tail is gone from disk...
  EXPECT_EQ(std::filesystem::file_size(tmp.path), full_size);
  // ...so a post-recovery append lands after the valid prefix.
  const Mutation extra = Mutation::Upsert(
      "post", "crash", "append", graph::NodeKind::kEntity,
      graph::NodeKind::kEntity, graph::Provenance{"recovered", 1.0, 99});
  ASSERT_TRUE(wal->Append(extra).ok());
  auto reread = Wal::Replay(tmp.path);
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(reread->clean);
  ASSERT_EQ(reread->mutations.size(), mutations.size() + 1);
  EXPECT_EQ(reread->mutations.back(), extra);
}

// Reopen under concurrent append: while one thread is appending a
// deterministic record sequence, another repeatedly snapshots the file
// and replays the copy. Because the log is append-only and framed,
// every snapshot's valid prefix must be bit-identical to the canonical
// framing of the first k records — a reader racing a writer can see a
// torn tail, but never a rewritten or reordered prefix. Each snapshot
// is also reopened through Wal::Open to check recovery (truncate the
// torn tail, keep the valid prefix) holds mid-write, not just after a
// clean shutdown.
TEST(WalTest, ReopenUnderConcurrentAppendRecoversBitIdenticalPrefix) {
  TempWal tmp("concurrent");
  TempWal copy("concurrent_copy");
  constexpr size_t kRecords = 600;
  std::vector<Mutation> expected;
  expected.reserve(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    expected.push_back(Mutation::Upsert(
        "subj" + std::to_string(i), "knows", "obj" + std::to_string(i % 7),
        NodeKind::kEntity, NodeKind::kEntity,
        Provenance{"writer", 0.5, static_cast<int64_t>(i)}));
  }
  const std::string canonical = FrameAll(expected);

  auto wal = Wal::Open(tmp.path);
  ASSERT_TRUE(wal.ok()) << wal.status();
  std::atomic<bool> done{false};
  std::atomic<bool> append_failed{false};
  std::thread writer([&] {
    for (const Mutation& m : expected) {
      if (!wal->Append(m).ok()) {
        append_failed.store(true);
        break;
      }
    }
    done.store(true);
  });

  size_t snapshots = 0;
  size_t max_records_seen = 0;
  // `done` is read before each snapshot, and the loop ends only after a
  // snapshot taken once the writer had finished — so the last snapshot
  // holds the whole log and passes through the same checks.
  for (bool writer_done = false; !writer_done;) {
    writer_done = done.load();
    std::ifstream in(tmp.path, std::ios::binary);
    const std::string prefix((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    ++snapshots;
    const WalReplay replay = ReplayWalBuffer(prefix);
    ASSERT_LE(replay.mutations.size(), expected.size());
    // Bit-identical prefix: the snapshot's valid bytes are exactly the
    // canonical framing of the records it recovered.
    ASSERT_EQ(std::string_view(prefix).substr(0, replay.valid_bytes),
              std::string_view(canonical).substr(0, replay.valid_bytes));
    for (size_t i = 0; i < replay.mutations.size(); ++i) {
      ASSERT_EQ(replay.mutations[i], expected[i])
          << "snapshot " << snapshots << ", record " << i;
    }
    max_records_seen = std::max(max_records_seen, replay.mutations.size());

    // Reopen the snapshot as a real WAL: recovery must accept the valid
    // prefix and truncate any torn tail the racing reader captured.
    {
      std::ofstream out(copy.path,
                        std::ios::binary | std::ios::trunc);
      out.write(prefix.data(),
                static_cast<std::streamsize>(prefix.size()));
    }
    WalReplay reopened;
    auto copy_wal = Wal::Open(copy.path, &reopened);
    ASSERT_TRUE(copy_wal.ok()) << copy_wal.status();
    ASSERT_EQ(reopened.mutations.size(), replay.mutations.size());
    ASSERT_EQ(std::filesystem::file_size(copy.path), replay.valid_bytes);
  }
  writer.join();
  ASSERT_FALSE(append_failed.load());

  // With the writer drained, the final replay is clean and complete.
  auto final_replay = Wal::Replay(tmp.path);
  ASSERT_TRUE(final_replay.ok()) << final_replay.status();
  EXPECT_TRUE(final_replay->clean);
  ASSERT_EQ(final_replay->mutations.size(), expected.size());
  EXPECT_EQ(final_replay->valid_bytes, canonical.size());
  EXPECT_GE(max_records_seen, 1u);
}

TEST(WalTest, OpenCreatesMissingFile) {
  TempWal tmp("fresh");
  WalReplay replay;
  auto wal = Wal::Open(tmp.path, &replay);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_TRUE(replay.clean);
  EXPECT_TRUE(replay.mutations.empty());
  EXPECT_EQ(wal->size_bytes(), 0u);
  ASSERT_TRUE(std::filesystem::exists(tmp.path));
}

}  // namespace
}  // namespace kg::store
