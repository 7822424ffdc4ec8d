#include "cluster/shard_log.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/hash.h"

namespace kg::cluster {

uint32_t ShardLog::ChainStep(uint32_t chain, std::string_view frame_bytes) {
  // Checksum32(le32(chain) ++ frame), hashed from a running state instead
  // of over a concatenated copy. Four bytes fit the small-string buffer,
  // so the seed allocates nothing.
  std::string seed;
  PutU32(&seed, chain);
  return Fold32(Fnv1a64(frame_bytes, Fnv1a64(seed)));
}

uint32_t ShardLog::FoldChain(uint32_t chain, std::string_view frames,
                             std::span<const uint64_t> frame_offsets) {
  for (size_t i = 0; i < frame_offsets.size(); ++i) {
    const uint64_t end =
        i + 1 < frame_offsets.size() ? frame_offsets[i + 1] : frames.size();
    chain = ChainStep(chain, frames.substr(frame_offsets[i],
                                           end - frame_offsets[i]));
  }
  return chain;
}

void ShardLog::Append(std::span<const store::Mutation> mutations) {
  if (mutations.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t chain = boundaries_.empty() ? 0 : boundaries_.back().second;
  for (const store::Mutation& mutation : mutations) {
    const size_t frame_start = log_.size();
    AppendRecord(&log_, store::EncodeMutation(mutation));
    chain = ChainStep(
        chain, std::string_view(log_).substr(frame_start,
                                             log_.size() - frame_start));
    boundaries_.emplace_back(log_.size(), chain);
  }
}

uint64_t ShardLog::EndOffset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
}

bool ShardLog::IsBoundary(uint64_t offset) const {
  if (offset == 0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(
      boundaries_.begin(), boundaries_.end(), offset,
      [](const std::pair<uint64_t, uint32_t>& b, uint64_t o) {
        return b.first < o;
      });
  return it != boundaries_.end() && it->first == offset;
}

uint32_t ShardLog::ChainAt(uint64_t offset) const {
  if (offset == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(
      boundaries_.begin(), boundaries_.end(), offset,
      [](const std::pair<uint64_t, uint32_t>& b, uint64_t o) {
        return b.first < o;
      });
  if (it == boundaries_.end() || it->first != offset) return 0;
  return it->second;
}

std::string ShardLog::ReadFrom(uint64_t offset, size_t max_bytes,
                               uint64_t* end_offset,
                               uint32_t* chain_after) const {
  std::lock_guard<std::mutex> lock(mu_);
  *end_offset = offset;
  *chain_after = 0;
  if (offset >= log_.size()) {
    // Nothing past here (or a bogus offset); report the chain at the
    // requested boundary when we know it.
    if (offset == 0) return {};
    const auto it = std::lower_bound(
        boundaries_.begin(), boundaries_.end(), offset,
        [](const std::pair<uint64_t, uint32_t>& b, uint64_t o) {
          return b.first < o;
        });
    if (it != boundaries_.end() && it->first == offset) {
      *chain_after = it->second;
    }
    return {};
  }
  // Walk whole frames from `offset` until adding the next would exceed
  // max_bytes (always shipping at least one frame so progress is
  // guaranteed even with a tiny budget).
  const auto begin = std::upper_bound(
      boundaries_.begin(), boundaries_.end(), offset,
      [](uint64_t o, const std::pair<uint64_t, uint32_t>& b) {
        return o < b.first;
      });
  uint64_t end = offset;
  uint32_t chain = 0;
  for (auto it = begin; it != boundaries_.end(); ++it) {
    if (it->first - offset > max_bytes && end != offset) break;
    end = it->first;
    chain = it->second;
  }
  *end_offset = end;
  *chain_after = chain;
  return log_.substr(offset, end - offset);
}

}  // namespace kg::cluster
