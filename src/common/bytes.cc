#include "common/bytes.h"

#include "common/hash.h"

namespace kg {
namespace {

template <typename T>
void PutLe(std::string* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

template <typename T>
T LoadLe(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(static_cast<uint8_t>(p[i])) << (8 * i));
  }
  return v;
}

Status Short(const char* what) {
  return Status::InvalidArgument(std::string("message body truncated at ") +
                                 what);
}

}  // namespace

void PutU8(std::string* out, uint8_t v) { PutLe(out, v); }
void PutU16(std::string* out, uint16_t v) { PutLe(out, v); }
void PutU32(std::string* out, uint32_t v) { PutLe(out, v); }
void PutU64(std::string* out, uint64_t v) { PutLe(out, v); }

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

uint32_t LoadU32(const char* p) { return LoadLe<uint32_t>(p); }
uint64_t LoadU64(const char* p) { return LoadLe<uint64_t>(p); }

template <typename T>
Result<T> ByteReader::Take(const char* what) {
  if (remaining() < sizeof(T)) return Short(what);
  const T v = LoadLe<T>(data_.data() + pos_);
  pos_ += sizeof(T);
  return v;
}

Result<uint8_t> ByteReader::TakeU8() { return Take<uint8_t>("u8"); }
Result<uint16_t> ByteReader::TakeU16() { return Take<uint16_t>("u16"); }
Result<uint32_t> ByteReader::TakeU32() { return Take<uint32_t>("u32"); }
Result<uint64_t> ByteReader::TakeU64() { return Take<uint64_t>("u64"); }

Result<std::string> ByteReader::TakeString() {
  KG_ASSIGN_OR_RETURN(const uint32_t len, TakeU32());
  if (len > remaining()) return Short("string body");
  return std::string(*TakeBytes(len));
}

Result<std::string_view> ByteReader::TakeBytes(size_t n) {
  if (n > remaining()) return Short("bytes");
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

Status ByteReader::ExpectEnd() const {
  if (remaining() == 0) return Status::OK();
  return Status::InvalidArgument("trailing bytes after message body: " +
                                 std::to_string(remaining()));
}

void AppendRecord(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Checksum32(payload));
  out->append(payload);
}

RecordScan ScanRecord(std::string_view data, uint32_t min_payload) {
  RecordScan scan;
  if (data.size() < kRecordHeaderBytes) return scan;
  scan.length = LoadU32(data.data());
  if (scan.length > kMaxRecordBytes) {
    scan.step = RecordStep::kTooLong;
  } else if (scan.length < min_payload) {
    scan.step = RecordStep::kTooShort;
  } else if (data.size() - kRecordHeaderBytes >= scan.length) {
    const std::string_view payload =
        data.substr(kRecordHeaderBytes, scan.length);
    const bool intact = Checksum32(payload) == LoadU32(data.data() + 4);
    scan.step = intact ? RecordStep::kRecord : RecordStep::kBadChecksum;
    if (intact) scan.payload = payload;
  }
  return scan;
}

}  // namespace kg
