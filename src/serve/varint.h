#ifndef KGRAPH_SERVE_VARINT_H_
#define KGRAPH_SERVE_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace kg::serve {

/// Canonical LEB128: 7 value bits per byte, low group first, high bit set
/// on every byte except the last. "Canonical" means minimal length — a
/// multi-byte encoding whose final group is zero is rejected by the
/// decoder, so every decodable byte string has exactly one value and
/// encode(decode(bytes)) == bytes holds everywhere. uint64_t needs at
/// most 10 bytes; the 10th carries only the top bit of the value.
inline constexpr size_t kMaxVarintBytes = 10;

/// Appends the canonical encoding of `v` to `out`.
void AppendVarint(std::string* out, uint64_t v);

/// Decodes one canonical varint from [p, end). Returns the number of
/// bytes consumed (>= 1) and stores the value in `*out`; returns 0 on
/// truncated input, a non-canonical (overlong) encoding, or a value that
/// would overflow 64 bits. Never reads at or past `end`.
size_t DecodeVarint(const uint8_t* p, const uint8_t* end, uint64_t* out);

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_VARINT_H_
