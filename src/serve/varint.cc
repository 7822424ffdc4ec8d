#include "serve/varint.h"

namespace kg::serve {

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

size_t DecodeVarint(const uint8_t* p, const uint8_t* end, uint64_t* out) {
  uint64_t value = 0;
  size_t n = 0;
  for (; n < kMaxVarintBytes && p + n < end; ++n) {
    const uint8_t byte = p[n];
    const uint64_t group = byte & 0x7f;
    if (n == 9) {
      // Groups 0..8 cover 63 bits; the 10th group may only carry bit 63.
      if (group > 1) return 0;  // would overflow uint64_t
    }
    value |= group << (7 * n);
    if ((byte & 0x80) == 0) {
      // Canonical form is minimal: a multi-byte encoding must not end in
      // an all-zero group (it would also encode in one fewer byte).
      if (n > 0 && group == 0) return 0;
      *out = value;
      return n + 1;
    }
  }
  return 0;  // truncated, or continuation bit set past the 10-byte cap
}

}  // namespace kg::serve
