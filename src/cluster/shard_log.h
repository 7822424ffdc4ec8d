#ifndef KGRAPH_CLUSTER_SHARD_LOG_H_
#define KGRAPH_CLUSTER_SHARD_LOG_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rpc/server.h"
#include "store/wal.h"

namespace kg::cluster {

/// A shard primary's shipping log: the byte-exact WAL image of every
/// mutation the primary has applied, kept in memory for streaming to
/// replicas (the primary's own durability is its store WAL; this log
/// exists to be *shipped*). Records use the WAL's kg::AppendRecord
/// envelope, so a replica that writes the shipped bytes to its local WAL
/// gets a file byte-identical to the primary's log prefix — which is
/// why a replica's persisted resume offset is simply its WAL size.
///
/// Every frame boundary carries a running Checksum32 chain
/// (chain' = Checksum32(le32(chain) ++ frame_bytes), chain 0 at offset
/// 0), so a subscriber can prove its replayed prefix is byte-identical
/// to the primary's before marking itself serveable.
///
/// Thread-safe: the shipping event loop reads while the router appends.
class ShardLog : public rpc::WalSource {
 public:
  ShardLog() = default;
  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  /// Appends one frame per mutation, advancing the chain.
  void Append(std::span<const store::Mutation> mutations);

  // --- rpc::WalSource -----------------------------------------------------

  uint64_t EndOffset() const override;
  bool IsBoundary(uint64_t offset) const override;
  uint32_t ChainAt(uint64_t offset) const override;
  std::string ReadFrom(uint64_t offset, size_t max_bytes,
                       uint64_t* end_offset,
                       uint32_t* chain_after) const override;

  // --- Chain arithmetic (shared with the receiving side) ------------------

  /// One chain step over a complete frame (header + payload bytes).
  static uint32_t ChainStep(uint32_t chain, std::string_view frame_bytes);

  /// Folds the chain over a run of complete frames (the shape a
  /// kWalBatch ships and a replica's WAL file stores) that start at
  /// `frame_offsets` and end at `frames.size()` — the frames and offsets a
  /// store::ReplayWalBuffer of `frames` verified and reported, so the
  /// fold hashes each byte once and scans nothing.
  static uint32_t FoldChain(uint32_t chain, std::string_view frames,
                            std::span<const uint64_t> frame_offsets);

 private:
  mutable std::mutex mu_;
  std::string log_;
  /// Per-frame (end offset, chain value there), ascending; offset 0 /
  /// chain 0 is implicit.
  std::vector<std::pair<uint64_t, uint32_t>> boundaries_;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_SHARD_LOG_H_
