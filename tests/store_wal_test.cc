// kg::store WAL: the binary mutation and commit codecs round-trip, one
// record holds one commit, and the truncation-tolerance contract — a log
// cut at *every* byte boundary recovers exactly the whole commits before
// the cut, Open() truncates a torn tail so later appends extend the valid
// prefix, and a record that passes its checksum but does not decode is
// refused, never truncated.

#include "store/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "graph/knowledge_graph.h"
#include "rpc/frame.h"
#include "store/versioned_store.h"

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

/// The sample mutations as three commits; the first and last hold two
/// mutations each, so a cut inside them would tear a commit.
std::vector<std::vector<Mutation>> SampleCommits() {
  const std::vector<Mutation> m = SampleMutations();
  return {{m[0], m[2]}, {m[1]}, {m[3], m[4]}};
}

std::string Record(const std::vector<Mutation>& commit) {
  auto payload = EncodeCommit(commit);
  EXPECT_TRUE(payload.ok()) << payload.status();
  std::string record;
  AppendRecord(&record, payload.ok() ? *payload : "");
  return record;
}

std::string FrameAll(const std::vector<std::vector<Mutation>>& commits,
                     std::vector<size_t>* record_ends = nullptr) {
  std::string buf;
  for (const std::vector<Mutation>& commit : commits) {
    buf += Record(commit);
    if (record_ends != nullptr) record_ends->push_back(buf.size());
  }
  return buf;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

/// A one-mutation commit payload around `mutation_bytes`: the u32 count
/// 1, then the bytes as given.
std::string OneMutationCommit(std::string_view mutation_bytes) {
  std::string payload;
  PutU32(&payload, 1);
  payload += mutation_bytes;
  return payload;
}

TEST(WalTest, EncodeDecodeRoundTripsHostileMutations) {
  for (const Mutation& m : SampleMutations()) {
    const std::string payload = OneMutationCommit(EncodeMutation(m));
    auto one = EncodeCommit(std::span<const Mutation>(&m, 1));
    ASSERT_TRUE(one.ok()) << one.status();
    EXPECT_EQ(*one, payload);
    auto decoded = DecodeCommit(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ((*decoded)[0], m);
    // Determinism: equal mutations encode byte-identically.
    EXPECT_EQ(EncodeMutation((*decoded)[0]), EncodeMutation(m));
  }
  const std::vector<Mutation> all = SampleMutations();
  auto commit = EncodeCommit(all);
  ASSERT_TRUE(commit.ok()) << commit.status();
  auto decoded = DecodeCommit(*commit);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, all);
}

TEST(WalTest, DecodeRejectsMalformedPayloads) {
  const Mutation m = SampleMutations()[0];
  const std::string good = EncodeMutation(m);
  ASSERT_TRUE(DecodeCommit(OneMutationCommit(good)).ok());
  EXPECT_FALSE(DecodeCommit(OneMutationCommit("")).ok());
  EXPECT_FALSE(
      DecodeCommit(OneMutationCommit(good.substr(0, good.size() - 1))).ok());
  EXPECT_FALSE(DecodeCommit(OneMutationCommit(good + "x")).ok());
  std::string bad_op = good;
  bad_op[0] = 2;
  EXPECT_FALSE(DecodeCommit(OneMutationCommit(bad_op)).ok());
  // The subject kind byte follows the op byte and the subject string.
  std::string bad_kind = good;
  bad_kind[1 + 4 + m.subject.size()] = 3;
  EXPECT_FALSE(DecodeCommit(OneMutationCommit(bad_kind)).ok());
  // The text format this codec replaced is refused, not misread.
  EXPECT_FALSE(DecodeCommit(OneMutationCommit(
                                "U\ts\tentity\tp\to\tentity\tsrc\t1\t0"))
                   .ok());
  EXPECT_FALSE(DecodeCommit("").ok());
  EXPECT_FALSE(DecodeCommit(std::string(4, '\0')).ok());  // Zero count.
  EXPECT_FALSE(EncodeCommit({}).ok());
}

TEST(WalTest, ReplayBufferRecoversAllRecordsCleanly) {
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  const std::string buf = FrameAll(commits);
  auto replay = ReplayWalBuffer(buf);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->clean);
  EXPECT_EQ(replay->valid_bytes, buf.size());
  EXPECT_EQ(replay->dropped_bytes, 0u);
  EXPECT_EQ(replay->commits, commits);
}

// record_offsets is the catch-up contract: replaying the suffix from
// record_offsets[i] yields exactly commits[i..], bit-identically — the
// property a replica resuming a WAL subscription from a persisted byte
// offset depends on.
TEST(WalTest, ReplayFromAnyFrameOffsetResumesBitIdentically) {
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  const std::string buf = FrameAll(commits);
  auto full = ReplayWalBuffer(buf);
  ASSERT_TRUE(full.ok() && full->clean);
  ASSERT_EQ(full->record_offsets.size(), commits.size());
  EXPECT_EQ(full->record_offsets.front(), 0u);

  for (size_t i = 0; i < full->record_offsets.size(); ++i) {
    const uint64_t offset = full->record_offsets[i];
    auto suffix = ReplayWalBuffer(std::string_view(buf).substr(offset));
    ASSERT_TRUE(suffix.ok() && suffix->clean) << "offset " << offset;
    EXPECT_EQ(suffix->valid_bytes, buf.size() - offset);
    ASSERT_EQ(suffix->commits.size(), commits.size() - i);
    std::string reframed;
    for (size_t j = 0; j < suffix->commits.size(); ++j) {
      EXPECT_EQ(suffix->commits[j], commits[i + j]);
      // The suffix's own offsets are the full log's, rebased.
      EXPECT_EQ(suffix->record_offsets[j] + offset,
                full->record_offsets[i + j]);
      reframed += Record(suffix->commits[j]);
    }
    // Re-encoding the resumed commits reproduces the suffix bytes.
    EXPECT_EQ(reframed, buf.substr(offset));
  }

  // Same resume points through a file: one AppendBatch per commit writes
  // the same records, and Wal::Replay reports their offsets.
  TempWal tmp("resume_offset");
  {
    auto wal = Wal::Open(tmp.path);
    ASSERT_TRUE(wal.ok());
    for (const std::vector<Mutation>& commit : commits) {
      ASSERT_TRUE(wal->AppendBatch(commit).ok());
    }
  }
  auto replay = Wal::Replay(tmp.path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_EQ(replay->record_offsets, full->record_offsets);
  EXPECT_EQ(FileBytes(tmp.path), buf);
}

// The acceptance criterion: cut the log at every byte boundary; the
// replay must recover exactly the commits whose records are fully inside
// the cut, and valid_bytes must equal the end of the last such record.
// The log is the one a WAL-backed store writes for three commits, and a
// store reopened over each cut must hold the knowledge of a whole-commit
// prefix: no commit is ever recovered in part.
TEST(WalTest, TruncationAtEveryByteBoundaryRecoversValidPrefix) {
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  graph::KnowledgeGraph base;
  base.AddTriple("alice", "knows", "carol", NodeKind::kEntity,
                 NodeKind::kEntity, Provenance{"base", 1.0, 0});
  TempWal written("every_cut_log");
  std::vector<uint64_t> prefix_fingerprints;
  {
    StoreOptions options;
    options.wal_path = written.path;
    auto store = VersionedKgStore::Open(base, options);
    ASSERT_TRUE(store.ok()) << store.status();
    prefix_fingerprints.push_back((*store)->AuthoritativeFingerprint());
    for (const std::vector<Mutation>& commit : commits) {
      ASSERT_TRUE((*store)->ApplyBatch(commit).ok());
      prefix_fingerprints.push_back((*store)->AuthoritativeFingerprint());
    }
  }
  const std::string buf = FileBytes(written.path);
  std::vector<size_t> record_ends;
  EXPECT_EQ(buf, FrameAll(commits, &record_ends));

  TempWal tmp("every_cut");
  StoreOptions options;
  options.wal_path = tmp.path;
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    auto replay = ReplayWalBuffer(std::string_view(buf).substr(0, cut));
    ASSERT_TRUE(replay.ok()) << "cut " << cut << ": " << replay.status();
    size_t expect_commits = 0;
    size_t expect_valid = 0;
    while (expect_commits < record_ends.size() &&
           record_ends[expect_commits] <= cut) {
      expect_valid = record_ends[expect_commits];
      ++expect_commits;
    }
    ASSERT_EQ(replay->commits.size(), expect_commits) << "cut " << cut;
    ASSERT_EQ(replay->valid_bytes, expect_valid) << "cut " << cut;
    ASSERT_EQ(replay->clean, cut == expect_valid) << "cut " << cut;
    for (size_t i = 0; i < expect_commits; ++i) {
      ASSERT_EQ(replay->commits[i], commits[i])
          << "cut " << cut << ", commit " << i;
    }

    WriteFile(tmp.path, std::string_view(buf).substr(0, cut));
    auto store = VersionedKgStore::Open(base, options);
    ASSERT_TRUE(store.ok()) << "cut " << cut << ": " << store.status();
    const uint64_t recovered = (*store)->AuthoritativeFingerprint();
    ASSERT_NE(std::find(prefix_fingerprints.begin(),
                        prefix_fingerprints.end(), recovered),
              prefix_fingerprints.end())
        << "cut " << cut << " recovered part of a commit";
    ASSERT_EQ(recovered, prefix_fingerprints[expect_commits])
        << "cut " << cut;
  }
}

TEST(WalTest, CorruptedChecksumStopsReplayAtThatRecord) {
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  std::vector<size_t> record_ends;
  std::string buf = FrameAll(commits, &record_ends);
  // Flip one payload byte of the third record (records 0 and 1 intact).
  buf[record_ends[1] + 8] ^= 0x40;
  auto replay = ReplayWalBuffer(buf);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_FALSE(replay->clean);
  EXPECT_EQ(replay->valid_bytes, record_ends[1]);
  EXPECT_EQ(replay->commits,
            std::vector<std::vector<Mutation>>(commits.begin(),
                                               commits.begin() + 2));
}

// A zero-length record carries the valid checksum of the empty payload:
// it was written whole, so it is not a torn tail, and an empty payload is
// no commit. The scan refuses it by offset instead of dropping it.
TEST(WalTest, ZeroLengthRecordIsRefusedNotATornTail) {
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  std::vector<size_t> record_ends;
  std::string buf = FrameAll(commits, &record_ends);
  AppendRecord(&buf, "");
  auto replay = ReplayWalBuffer(buf);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.status().message().find(
                "offset " + std::to_string(record_ends.back())),
            std::string::npos)
      << replay.status();
}

// A WAL written before records were binary commits holds one text
// mutation per record. Its checksums pass, so truncating at the first one
// would silently empty the log; Open refuses it, names the offset, and
// leaves every byte of the file in place — as does a store opened on it.
TEST(WalTest, TextFormatRecordFailsOpenAndLeavesTheFileUnchanged) {
  TempWal tmp("text_format");
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  std::string bytes = FrameAll(commits);
  const size_t text_offset = bytes.size();
  AppendRecord(&bytes, "U\talice\tentity\tknows\tbob\tentity\tsrc\t1\t0");
  AppendRecord(&bytes, "R\talice\tentity\tknows\tbob\tentity\t\t0\t0");
  WriteFile(tmp.path, bytes);

  WalReplay replay;
  auto wal = Wal::Open(tmp.path, &replay);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wal.status().message().find("offset " +
                                        std::to_string(text_offset)),
            std::string::npos)
      << wal.status();
  EXPECT_EQ(FileBytes(tmp.path), bytes);

  StoreOptions options;
  options.wal_path = tmp.path;
  auto store = VersionedKgStore::Open(graph::KnowledgeGraph(), options);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FileBytes(tmp.path), bytes);

  // A log that holds only text records is refused the same way.
  const std::string text_only = bytes.substr(text_offset);
  WriteFile(tmp.path, text_only);
  EXPECT_FALSE(Wal::Open(tmp.path).ok());
  EXPECT_EQ(FileBytes(tmp.path), text_only);
}

TEST(WalTest, AppendReplayRoundTripsThroughAFile) {
  TempWal tmp("roundtrip");
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  {
    auto wal = Wal::Open(tmp.path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (const std::vector<Mutation>& commit : commits) {
      ASSERT_TRUE(wal->AppendBatch(commit).ok());
    }
    // An empty commit writes nothing.
    ASSERT_TRUE(wal->AppendBatch({}).ok());
    EXPECT_EQ(wal->size_bytes(), std::filesystem::file_size(tmp.path));
  }
  auto replay = Wal::Replay(tmp.path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->clean);
  EXPECT_EQ(replay->commits, commits);
}

// The commit cap comes from the kWalBatch frame layout: the largest
// record one frame carries is accepted, one byte more is refused, and a
// refused commit leaves the log as it was.
TEST(WalTest, CommitLargerThanOneShippedFrameIsRefused) {
  std::vector<Mutation> commit = {
      Mutation::Upsert("", "p", "o", NodeKind::kEntity, NodeKind::kText,
                       Provenance{"s", 1.0, 0})};
  auto unpadded = EncodeCommit(commit);
  ASSERT_TRUE(unpadded.ok());
  commit[0].subject.assign(
      rpc::kMaxShippedRecordBytes - kRecordHeaderBytes - unpadded->size(),
      'x');
  auto largest = EncodeCommit(commit);
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(kRecordHeaderBytes + largest->size(), rpc::kMaxShippedRecordBytes);

  TempWal tmp("cap");
  auto wal = Wal::Open(tmp.path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->AppendBatch(commit).ok());
  const uint64_t size = wal->size_bytes();
  EXPECT_EQ(size, rpc::kMaxShippedRecordBytes);

  commit[0].subject.push_back('x');
  const Status refused = wal->AppendBatch(commit);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  EXPECT_EQ(wal->size_bytes(), size);
  EXPECT_EQ(std::filesystem::file_size(tmp.path), size);
}

TEST(WalTest, OpenTruncatesTornTailAndAppendsExtendValidPrefix) {
  TempWal tmp("torn");
  const std::vector<std::vector<Mutation>> commits = SampleCommits();
  {
    auto wal = Wal::Open(tmp.path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (const std::vector<Mutation>& commit : commits) {
      ASSERT_TRUE(wal->AppendBatch(commit).ok());
    }
  }
  const auto full_size = std::filesystem::file_size(tmp.path);
  // Simulate a crash mid-append: a valid header promising more bytes
  // than were written.
  {
    std::ofstream out(tmp.path, std::ios::binary | std::ios::app);
    const std::string torn = Record(commits[0]);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }
  ASSERT_GT(std::filesystem::file_size(tmp.path), full_size);

  WalReplay replay;
  auto wal = Wal::Open(tmp.path, &replay);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(replay.commits, commits);
  EXPECT_GT(replay.dropped_bytes, 0u);
  // The torn tail is gone from disk...
  EXPECT_EQ(std::filesystem::file_size(tmp.path), full_size);
  // ...so a post-recovery append lands after the valid prefix.
  const std::vector<Mutation> extra = {Mutation::Upsert(
      "post", "crash", "append", graph::NodeKind::kEntity,
      graph::NodeKind::kEntity, graph::Provenance{"recovered", 1.0, 99})};
  ASSERT_TRUE(wal->AppendBatch(extra).ok());
  auto reread = Wal::Replay(tmp.path);
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(reread->clean);
  ASSERT_EQ(reread->commits.size(), commits.size() + 1);
  EXPECT_EQ(reread->commits.back(), extra);
}

// Reopen under concurrent append: while one thread is appending a
// deterministic commit sequence, another repeatedly snapshots the file
// and replays the copy. Because the log is append-only and framed,
// every snapshot's valid prefix must be bit-identical to the canonical
// framing of the first k commits — a reader racing a writer can see a
// torn tail, but never a rewritten or reordered prefix. Each snapshot
// is also reopened through Wal::Open to check recovery (truncate the
// torn tail, keep the valid prefix) holds mid-write, not just after a
// clean shutdown.
TEST(WalTest, ReopenUnderConcurrentAppendRecoversBitIdenticalPrefix) {
  TempWal tmp("concurrent");
  TempWal copy("concurrent_copy");
  constexpr size_t kCommits = 600;
  std::vector<std::vector<Mutation>> expected(kCommits);
  for (size_t i = 0; i < kCommits; ++i) {
    for (size_t j = 0; j <= i % 3; ++j) {
      expected[i].push_back(Mutation::Upsert(
          "subj" + std::to_string(i), "knows",
          "obj" + std::to_string((i + j) % 7), NodeKind::kEntity,
          NodeKind::kEntity,
          Provenance{"writer", 0.5, static_cast<int64_t>(i)}));
    }
  }
  const std::string canonical = FrameAll(expected);

  auto wal = Wal::Open(tmp.path);
  ASSERT_TRUE(wal.ok()) << wal.status();
  std::atomic<bool> done{false};
  std::atomic<bool> append_failed{false};
  std::thread writer([&] {
    for (const std::vector<Mutation>& commit : expected) {
      if (!wal->AppendBatch(commit).ok()) {
        append_failed.store(true);
        break;
      }
    }
    done.store(true);
  });

  size_t snapshots = 0;
  size_t max_commits_seen = 0;
  // `done` is read before each snapshot, and the loop ends only after a
  // snapshot taken once the writer had finished — so the last snapshot
  // holds the whole log and passes through the same checks.
  for (bool writer_done = false; !writer_done;) {
    writer_done = done.load();
    const std::string prefix = FileBytes(tmp.path);
    ++snapshots;
    auto replay = ReplayWalBuffer(prefix);
    ASSERT_TRUE(replay.ok()) << replay.status();
    ASSERT_LE(replay->commits.size(), expected.size());
    // Bit-identical prefix: the snapshot's valid bytes are exactly the
    // canonical framing of the commits it recovered.
    ASSERT_EQ(std::string_view(prefix).substr(0, replay->valid_bytes),
              std::string_view(canonical).substr(0, replay->valid_bytes));
    for (size_t i = 0; i < replay->commits.size(); ++i) {
      ASSERT_EQ(replay->commits[i], expected[i])
          << "snapshot " << snapshots << ", commit " << i;
    }
    max_commits_seen = std::max(max_commits_seen, replay->commits.size());

    // Reopen the snapshot as a real WAL: recovery must accept the valid
    // prefix and truncate any torn tail the racing reader captured.
    WriteFile(copy.path, prefix);
    WalReplay reopened;
    auto copy_wal = Wal::Open(copy.path, &reopened);
    ASSERT_TRUE(copy_wal.ok()) << copy_wal.status();
    ASSERT_EQ(reopened.commits.size(), replay->commits.size());
    ASSERT_EQ(std::filesystem::file_size(copy.path), replay->valid_bytes);
  }
  writer.join();
  ASSERT_FALSE(append_failed.load());

  // With the writer drained, the final replay is clean and complete.
  auto final_replay = Wal::Replay(tmp.path);
  ASSERT_TRUE(final_replay.ok()) << final_replay.status();
  EXPECT_TRUE(final_replay->clean);
  ASSERT_EQ(final_replay->commits.size(), expected.size());
  EXPECT_EQ(final_replay->valid_bytes, canonical.size());
  EXPECT_GE(max_commits_seen, 1u);
}

TEST(WalTest, OpenCreatesMissingFile) {
  TempWal tmp("fresh");
  WalReplay replay;
  auto wal = Wal::Open(tmp.path, &replay);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_TRUE(replay.clean);
  EXPECT_TRUE(replay.commits.empty());
  EXPECT_EQ(wal->size_bytes(), 0u);
  ASSERT_TRUE(std::filesystem::exists(tmp.path));
}

}  // namespace
}  // namespace kg::store
