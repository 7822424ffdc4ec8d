#ifndef KGRAPH_COMMON_BYTES_H_
#define KGRAPH_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace kg {

// The one byte codec behind every binary format the system writes — the
// WAL, the RPC wire, the shipping log and the snapshot/ANN containers.
// Integers are little-endian at every width; a string is a u32le length
// followed by its bytes, so every encoding is injective.

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutString(std::string* out, std::string_view s);

/// Fixed-offset reads for headers whose size the caller already checked.
uint32_t LoadU32(const char* p);
uint64_t LoadU64(const char* p);

/// Sequential reader over a byte run. Every Take* fails cleanly
/// (kInvalidArgument, naming the field cut short) at the end of the run
/// instead of reading past it.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> TakeU8();
  Result<uint16_t> TakeU16();
  Result<uint32_t> TakeU32();
  Result<uint64_t> TakeU64();
  /// A u32le length, then that many bytes; a length running past the end
  /// is refused before anything is copied.
  Result<std::string> TakeString();
  /// The next `n` bytes, uncopied.
  Result<std::string_view> TakeBytes(size_t n);
  /// Decoders call this last: a well-formed run has no trailing bytes.
  Status ExpectEnd() const;

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  Result<T> Take(const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

// ---- Checksummed records ------------------------------------------------
// One envelope frames every WAL record, shipping-log record and RPC frame:
// [u32le payload length][u32le Checksum32(payload)][payload].

inline constexpr size_t kRecordHeaderBytes = 8;

/// Refuse to believe one record exceeds this; a larger declared length
/// is corruption, not data (keeps a flipped length bit from swallowing
/// the rest of a file or stream as one "record").
inline constexpr uint32_t kMaxRecordBytes = 1u << 24;

void AppendRecord(std::string* out, std::string_view payload);

enum class RecordStep {
  kRecord,       ///< A whole record whose payload matches its checksum.
  kNeedMore,     ///< The run ends inside the first record.
  kTooLong,      ///< The header declares more than kMaxRecordBytes.
  kTooShort,     ///< The header declares less than the caller's minimum.
  kBadChecksum,  ///< The payload does not match its checksum.
};

struct RecordScan {
  RecordStep step = RecordStep::kNeedMore;
  uint32_t length = 0;       ///< Declared length, once the header is whole.
  std::string_view payload;  ///< On kRecord: a view into the scanned run.
  /// Bytes the record spans, header included.
  size_t size() const { return kRecordHeaderBytes + length; }
};

/// Scans the record at the front of `data`. The declared length is judged
/// from the header alone: one above kMaxRecordBytes or below
/// `min_payload` is refused before any payload byte has to arrive.
RecordScan ScanRecord(std::string_view data, uint32_t min_payload = 0);

}  // namespace kg

#endif  // KGRAPH_COMMON_BYTES_H_
