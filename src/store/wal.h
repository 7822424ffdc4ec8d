#ifndef KGRAPH_STORE_WAL_H_
#define KGRAPH_STORE_WAL_H_

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "graph/knowledge_graph.h"

namespace kg::store {

/// The two mutations a versioned KG store accepts. Upsert asserts a
/// triple (appending provenance when it already exists — the
/// `KnowledgeGraph::AddTriple` semantics); Retract tombstones it.
enum class MutationOp : uint8_t {
  kUpsert = 0,
  kRetract = 1,
};

/// One logged mutation. Nodes are addressed by (name, kind) exactly as in
/// the KnowledgeGraph vocabulary, so a mutation stream plus a base KG
/// fully determines the resulting graph — the store's determinism
/// argument rests on this (mutation order is the log order, nothing
/// else).
struct Mutation {
  MutationOp op = MutationOp::kUpsert;
  std::string subject;
  graph::NodeKind subject_kind = graph::NodeKind::kEntity;
  std::string predicate;
  std::string object;
  graph::NodeKind object_kind = graph::NodeKind::kEntity;
  /// Meaningful for upserts only; retracts carry an empty provenance.
  graph::Provenance prov;

  static Mutation Upsert(std::string subject, std::string predicate,
                         std::string object, graph::NodeKind subject_kind,
                         graph::NodeKind object_kind,
                         graph::Provenance prov);
  static Mutation Retract(std::string subject, std::string predicate,
                          std::string object, graph::NodeKind subject_kind,
                          graph::NodeKind object_kind);

  friend bool operator==(const Mutation& a, const Mutation& b) {
    return a.op == b.op && a.subject == b.subject &&
           a.subject_kind == b.subject_kind && a.predicate == b.predicate &&
           a.object == b.object && a.object_kind == b.object_kind &&
           a.prov.source == b.prov.source &&
           a.prov.confidence == b.prov.confidence &&
           a.prov.timestamp == b.prov.timestamp;
  }
};

/// A mutation's bytes inside a commit record, in the common/bytes.h codec:
/// u8 op, the subject as a string, u8 subject kind
/// (graph::NodeKindByte), the predicate and the object as strings, u8
/// object kind, the provenance source as a string, the confidence as the
/// u64 bit pattern of its IEEE-754 double, and the timestamp as a u64.
/// Deterministic and exact: equal mutations encode byte-identically, and
/// a decoded confidence is bit-identical to the encoded one.
std::string EncodeMutation(const Mutation& m);

/// One commit as one record payload: a u32 mutation count, then each
/// mutation as `EncodeMutation` writes it. Refuses (kInvalidArgument) an
/// empty commit, and one whose record would exceed
/// rpc::kMaxShippedRecordBytes: a commit ships to replicas whole, inside
/// one kWalBatch frame.
Result<std::string> EncodeCommit(std::span<const Mutation> mutations);

/// Inverts `EncodeCommit`: refuses a zero count, a count that runs past
/// the payload, a mutation with an op or kind byte out of range or a
/// field cut short, and trailing bytes.
Result<std::vector<Mutation>> DecodeCommit(std::string_view payload);

/// The result of scanning a WAL image: the longest prefix of whole
/// records. `commits[i]` is the commit whose record starts at byte
/// `record_offsets[i]`, so replaying the suffix from any record offset
/// yields exactly `commits[i..]` (store_wal_test proves the
/// bit-identical resume a catch-up subscriber needs). `valid_bytes` is
/// where the prefix ends (the recovery truncation point); `clean` is true
/// when the scan consumed every byte.
struct WalReplay {
  std::vector<std::vector<Mutation>> commits;
  std::vector<uint64_t> record_offsets;
  uint64_t valid_bytes = 0;
  uint64_t dropped_bytes = 0;
  bool clean = true;
};

/// Scans a WAL byte image, one kg::ScanRecord per record (common/bytes.h).
/// The scan stops, without failing, at the first record that is
/// incomplete, declares more than kg::kMaxRecordBytes or fails its
/// checksum: a torn write leaves only such a tail, so a WAL cut at *any*
/// byte recovers every whole commit before the cut (store_wal_test cuts
/// at every offset to prove it). A record that passes its checksum but
/// does not decode was written whole, so it is not a torn tail; the scan
/// fails with kInvalidArgument naming its offset. Never crashes on
/// arbitrary bytes (store_wal_fuzz_test).
Result<WalReplay> ReplayWalBuffer(std::string_view data);

/// The bytes of the file at `path`, for a WAL scan.
Result<std::string> ReadWalFile(const std::string& path);

/// Append-only write-ahead log for store commits: one kg::AppendRecord
/// record (common/bytes.h: [u32le length][u32le Checksum32][payload]) per
/// commit, so replay recovers whole commits or none of one. Not
/// internally synchronized: the store serializes appends under its
/// writer lock.
class Wal {
 public:
  /// Opens (creating if absent) the log at `path` for appending. When
  /// the existing file ends in a torn tail, the tail is truncated away —
  /// re-opening after a crash never leaves garbage for later appends to
  /// land after. A record that does not decode fails the open and leaves
  /// the file byte-for-byte as it was. The replay of the surviving prefix
  /// is written to `*replay` when non-null.
  static Result<Wal> Open(const std::string& path,
                          WalReplay* replay = nullptr);

  /// Reads and scans the log at `path` without opening it for append.
  static Result<WalReplay> Replay(const std::string& path);

  Wal(Wal&&) = default;
  Wal& operator=(Wal&&) = default;

  /// Appends one commit as one record and flushes it to the OS. An empty
  /// commit writes nothing; one `EncodeCommit` refuses writes nothing and
  /// returns its status.
  Status AppendBatch(std::span<const Mutation> mutations);

  const std::string& path() const { return path_; }

  /// Bytes of valid log written or recovered so far.
  uint64_t size_bytes() const { return size_bytes_; }

 private:
  Wal() = default;

  std::string path_;
  std::ofstream out_;
  uint64_t size_bytes_ = 0;
};

}  // namespace kg::store

#endif  // KGRAPH_STORE_WAL_H_
