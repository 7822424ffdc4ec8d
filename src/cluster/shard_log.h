#ifndef KGRAPH_CLUSTER_SHARD_LOG_H_
#define KGRAPH_CLUSTER_SHARD_LOG_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rpc/server.h"

namespace kg::cluster {

/// A shard primary's shipping log: the byte-exact WAL image of every
/// commit the primary has applied, kept in memory for streaming to
/// replicas (the primary's own durability is its store WAL; this log
/// exists to be *shipped*). One record per commit, in the WAL's
/// kg::AppendRecord envelope, so a replica that applies each shipped
/// record as one commit writes a local WAL byte-identical to the
/// primary's log prefix — which is why a replica's persisted resume
/// offset is simply its WAL size.
///
/// Every record boundary — every commit boundary — carries a running
/// Checksum32 chain (chain' = Checksum32(le32(chain) ++ record_bytes),
/// chain 0 at offset 0), so a subscriber can prove its replayed prefix is
/// byte-identical to the primary's before marking itself serveable.
///
/// Thread-safe: the shipping event loop reads while the router appends.
class ShardLog : public rpc::WalSource {
 public:
  ShardLog() = default;
  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  /// Appends one encoded commit (store::EncodeCommit) as one record,
  /// advancing the chain.
  void Append(std::string_view commit);

  // --- rpc::WalSource -----------------------------------------------------

  uint64_t EndOffset() const override;
  bool IsBoundary(uint64_t offset) const override;
  uint32_t ChainAt(uint64_t offset) const override;
  std::string ReadFrom(uint64_t offset, size_t max_bytes,
                       uint64_t* end_offset,
                       uint32_t* chain_after) const override;

  // --- Chain arithmetic (shared with the receiving side) ------------------

  /// One chain step over a complete record (header + payload bytes).
  static uint32_t ChainStep(uint32_t chain, std::string_view record_bytes);

  /// Folds the chain over a run of complete records (the shape a
  /// kWalBatch ships and a replica's WAL file stores) that start at
  /// `record_offsets` and end at `records.size()` — the records and
  /// offsets a store::ReplayWalBuffer of `records` verified and reported,
  /// so the fold hashes each byte once and scans nothing. The chain after
  /// each record lands in `*each` when non-null.
  static uint32_t FoldChain(uint32_t chain, std::string_view records,
                            std::span<const uint64_t> record_offsets,
                            std::vector<uint32_t>* each = nullptr);

 private:
  using Boundary = std::pair<uint64_t, uint32_t>;

  /// The boundary at `offset`, or null when `offset` ends no record.
  /// Offset 0 is a boundary but has no entry. Caller holds `mu_`.
  const Boundary* FindBoundaryLocked(uint64_t offset) const;

  mutable std::mutex mu_;
  std::string log_;
  /// Per-record (end offset, chain value there), ascending; offset 0 /
  /// chain 0 is implicit.
  std::vector<Boundary> boundaries_;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_SHARD_LOG_H_
