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

/// Renders a mutation as one tab-separated payload (9 fields, every text
/// field through `graph::EscapeTsvField`, confidence at full double
/// precision). Deterministic: equal mutations encode byte-identically.
std::string EncodeMutation(const Mutation& m);

/// Inverts `EncodeMutation`; rejects malformed payloads with a
/// descriptive status (the WAL replay treats any such record as the
/// start of a torn tail).
Result<Mutation> DecodeMutation(std::string_view payload);

/// The result of scanning a WAL image. `mutations` is the longest valid
/// record prefix; `valid_bytes` is where that prefix ends (the recovery
/// truncation point); `clean` is true when the scan consumed every byte.
/// `frame_offsets[i]` is the byte offset where `mutations[i]`'s frame
/// starts, so `frame_offsets.back()` is the offset of the last valid
/// frame — the resume point a catch-up subscriber needs: replaying the
/// suffix from any `frame_offsets[i]` yields exactly `mutations[i..]`
/// (store_wal_test proves the bit-identical-resume property).
struct WalReplay {
  std::vector<Mutation> mutations;
  std::vector<uint64_t> frame_offsets;
  uint64_t valid_bytes = 0;
  uint64_t dropped_bytes = 0;
  bool clean = true;
};

/// Truncation-tolerant scan of a WAL byte image: one kg::ScanRecord per
/// frame (common/bytes.h). Replay stops — without failing — at the first
/// frame that is incomplete, declares more than kg::kMaxRecordBytes,
/// fails its checksum, or does not decode; everything before it is
/// returned. A WAL torn at *any* byte boundary therefore recovers every
/// fully-written record (store_wal_test cuts at every offset to prove
/// it). Never crashes on arbitrary bytes (store_wal_fuzz_test).
WalReplay ReplayWalBuffer(std::string_view data);

/// Append-only write-ahead log for store mutations, one kg::AppendRecord
/// record (common/bytes.h: [u32le length][u32le Checksum32][payload])
/// per mutation. Not internally synchronized: the store serializes
/// appends under its writer lock.
class Wal {
 public:
  /// Opens (creating if absent) the log at `path` for appending. When
  /// the existing file ends in a torn or corrupt tail, the tail is
  /// truncated away — re-opening after a crash never leaves garbage for
  /// later appends to land after. The replay of the surviving prefix is
  /// written to `*replay` when non-null.
  static Result<Wal> Open(const std::string& path,
                          WalReplay* replay = nullptr);

  /// Reads and scans the log at `path` without opening it for append.
  static Result<WalReplay> Replay(const std::string& path);

  Wal(Wal&&) = default;
  Wal& operator=(Wal&&) = default;

  /// Appends one record and flushes it to the OS.
  Status Append(const Mutation& m);

  /// Appends a batch, flushing once at the end (one batch == one
  /// logical commit).
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
