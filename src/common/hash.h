#ifndef KGRAPH_COMMON_HASH_H_
#define KGRAPH_COMMON_HASH_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>

namespace kg {

/// FNV-1a's 64-bit offset basis: the running state before any byte.
inline constexpr uint64_t kFnv1a64Basis = 14695981039346656037ULL;

/// 64-bit FNV-1a over bytes; stable across platforms and runs (unlike
/// std::hash), so anything persisted or printed may depend on it. `h` is
/// the running state to continue from, so Fnv1a64(b, Fnv1a64(a)) ==
/// Fnv1a64(a ++ b) and a hash over pieces needs no concatenated copy.
inline uint64_t Fnv1a64(std::string_view data, uint64_t h = kFnv1a64Basis) {
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Folds a 64-bit hash's two halves into 32 bits.
inline uint32_t Fold32(uint64_t h) {
  return static_cast<uint32_t>(h ^ (h >> 32));
}

/// 32-bit checksum for framed on-disk records (e.g. the store WAL): the
/// two halves of `Fnv1a64` folded together, so it inherits FNV-1a's
/// platform stability while fitting a fixed 4-byte frame header. Not
/// cryptographic — it detects torn writes and bit rot, not adversaries.
inline uint32_t Checksum32(std::string_view data) {
  return Fold32(Fnv1a64(data));
}

/// Boost-style hash combiner.
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hasher for std::pair keys in unordered containers.
struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& p) const {
    return HashCombine(std::hash<A>()(p.first), std::hash<B>()(p.second));
  }
};

}  // namespace kg

#endif  // KGRAPH_COMMON_HASH_H_
