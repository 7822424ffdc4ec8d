#include "cluster/shard_log.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/hash.h"

namespace kg::cluster {

uint32_t ShardLog::ChainStep(uint32_t chain, std::string_view record_bytes) {
  // Checksum32(le32(chain) ++ record), hashed from a running state instead
  // of over a concatenated copy. Four bytes fit the small-string buffer,
  // so the seed allocates nothing.
  std::string seed;
  PutU32(&seed, chain);
  return Fold32(Fnv1a64(record_bytes, Fnv1a64(seed)));
}

uint32_t ShardLog::FoldChain(uint32_t chain, std::string_view records,
                             std::span<const uint64_t> record_offsets,
                             std::vector<uint32_t>* each) {
  for (size_t i = 0; i < record_offsets.size(); ++i) {
    const uint64_t end = i + 1 < record_offsets.size() ? record_offsets[i + 1]
                                                       : records.size();
    chain = ChainStep(chain, records.substr(record_offsets[i],
                                            end - record_offsets[i]));
    if (each != nullptr) each->push_back(chain);
  }
  return chain;
}

void ShardLog::Append(std::string_view commit) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t chain = boundaries_.empty() ? 0 : boundaries_.back().second;
  const size_t start = log_.size();
  AppendRecord(&log_, commit);
  const std::string_view record = std::string_view(log_).substr(start);
  boundaries_.emplace_back(log_.size(), ChainStep(chain, record));
}

const ShardLog::Boundary* ShardLog::FindBoundaryLocked(
    uint64_t offset) const {
  const auto it = std::lower_bound(
      boundaries_.begin(), boundaries_.end(), offset,
      [](const Boundary& b, uint64_t o) { return b.first < o; });
  return it != boundaries_.end() && it->first == offset ? &*it : nullptr;
}

uint64_t ShardLog::EndOffset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
}

bool ShardLog::IsBoundary(uint64_t offset) const {
  if (offset == 0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return FindBoundaryLocked(offset) != nullptr;
}

uint32_t ShardLog::ChainAt(uint64_t offset) const {
  if (offset == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const Boundary* boundary = FindBoundaryLocked(offset);
  return boundary != nullptr ? boundary->second : 0;
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
    const Boundary* boundary = FindBoundaryLocked(offset);
    if (boundary != nullptr) *chain_after = boundary->second;
    return {};
  }
  // Walk whole records from `offset` until adding the next would exceed
  // max_bytes (always shipping at least one record so progress is
  // guaranteed even with a tiny budget). A record is a commit, so every
  // batch ends on a commit boundary.
  const auto begin = std::upper_bound(
      boundaries_.begin(), boundaries_.end(), offset,
      [](uint64_t o, const Boundary& b) { return o < b.first; });
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
