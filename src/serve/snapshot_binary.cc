#include "serve/snapshot_binary.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/bytes.h"
#include "common/hash.h"

namespace kg::serve {

namespace {

struct ParsedHeader {
  uint32_t schema_version = 0;
  uint64_t num_nodes = 0;
  uint64_t num_predicates = 0;
  uint64_t num_triples = 0;
  uint64_t fingerprint = 0;
  struct Section {
    uint64_t offset = 0;
    uint64_t size = 0;
  };
  std::array<Section, kNumSnapshotSections> sections;
  uint32_t payload_checksum = 0;
};

/// Validates everything about `data` except the payload checksum and
/// returns the parsed header. Every check here is O(1); passing means the
/// section table is structurally sound — each section lies inside the
/// file, is aligned for its element type, and has exactly the size the
/// header counts demand — so FromRawParts views can be wired without
/// touching a payload byte.
Result<ParsedHeader> ValidateHeader(std::string_view data) {
  const auto bad = [](const char* why) {
    return Status::InvalidArgument(std::string("binary snapshot: ") + why);
  };
  if (data.size() < 12) return bad("truncated header");  // magic, version
  const char* p = data.data();
  if (std::memcmp(p, kBinarySnapshotMagic, 8) != 0) return bad("bad magic");
  // The container version fixes where every later field lives, the
  // header checksum included, so it is read first. A newer file is
  // retriable (an upgraded reader may open it); an older one is not.
  const uint32_t version = LoadU32(p + 8);
  if (version != kBinarySnapshotContainerVersion) {
    const bool newer = version > kBinarySnapshotContainerVersion;
    const std::string why = "binary snapshot: container version " +
                            std::to_string(version) +
                            (newer ? " newer" : " older") + " than supported " +
                            std::to_string(kBinarySnapshotContainerVersion);
    return newer ? Status::Unavailable(why) : Status::InvalidArgument(why);
  }
  if (data.size() < kBinarySnapshotHeaderSize) return bad("truncated header");

  ParsedHeader h;
  h.schema_version = LoadU32(p + 12);
  h.num_nodes = LoadU64(p + 16);
  h.num_predicates = LoadU64(p + 24);
  h.num_triples = LoadU64(p + 32);
  h.fingerprint = LoadU64(p + 40);
  size_t at = 48;
  for (size_t i = 0; i < kNumSnapshotSections; ++i) {
    h.sections[i].offset = LoadU64(p + at);
    h.sections[i].size = LoadU64(p + at + 8);
    at += 16;
  }
  h.payload_checksum = LoadU32(p + at);
  const uint32_t header_checksum = LoadU32(p + at + 4);

  // The header checksum gates everything parsed above: a flipped bit in
  // a count or a section-table entry is caught before any derived check
  // could be reasoned about with corrupt inputs.
  if (Checksum32(data.substr(0, kBinarySnapshotHeaderSize - 4)) !=
      header_checksum) {
    return bad("header checksum mismatch");
  }
  if (h.num_nodes >= UINT32_MAX || h.num_predicates >= UINT32_MAX) {
    return bad("counts exceed 32-bit id space");
  }

  // Per-section bounds: overflow-safe (size is checked against the space
  // *after* offset, never via offset + size).
  for (const auto& s : h.sections) {
    if (s.offset < kBinarySnapshotHeaderSize || s.offset > data.size()) {
      return bad("section offset out of bounds");
    }
    if (s.size > data.size() - s.offset) return bad("section overruns file");
  }

  // Exact sizes implied by the counts. These are what make the zero-copy
  // views memory-safe: ArenaSlice may read offsets[id + 1] for any valid
  // id, so the offset arrays must physically hold count + 1 entries.
  const auto expect = [&bad](const ParsedHeader::Section& s, uint64_t bytes,
                             uint64_t align) -> Status {
    if (s.size != bytes) return bad("section size does not match counts");
    if (align > 1 && s.offset % align != 0) return bad("misaligned section");
    return Status::OK();
  };
  const uint64_t n = h.num_nodes, m = h.num_predicates;
  KG_RETURN_IF_ERROR(expect(h.sections[kSectionNodeKinds], n, 1));
  KG_RETURN_IF_ERROR(
      expect(h.sections[kSectionNodeNameOffsets], (n + 1) * 4, 4));
  KG_RETURN_IF_ERROR(
      expect(h.sections[kSectionPredNameOffsets], (m + 1) * 4, 4));
  KG_RETURN_IF_ERROR(expect(h.sections[kSectionSpoOffsets], (n + 1) * 8, 8));
  KG_RETURN_IF_ERROR(expect(h.sections[kSectionPredTripleCounts], m * 8, 8));
  KG_RETURN_IF_ERROR(expect(h.sections[kSectionOspOffsets], (n + 1) * 8, 8));
  // Variable-size sections: arenas and posting bytes are free-form (the
  // accessors clamp), index tables must be whole power-of-two slot
  // arrays so the probe mask is valid.
  for (const SnapshotSection sec :
       {kSectionNodeIndexEntity, kSectionNodeIndexText,
        kSectionNodeIndexClass, kSectionPredIndex}) {
    const auto& s = h.sections[sec];
    if (s.size % sizeof(SnapshotIndexSlot) != 0) {
      return bad("index section not a whole slot array");
    }
    const uint64_t slots = s.size / sizeof(SnapshotIndexSlot);
    if (slots != 0 && (slots & (slots - 1)) != 0) {
      return bad("index slot count not a power of two");
    }
    if (s.size != 0 && s.offset % 8 != 0) return bad("misaligned section");
  }
  for (const SnapshotSection sec : {kSectionNodeArena, kSectionPredArena}) {
    if (h.sections[sec].size > UINT32_MAX) {
      return bad("arena exceeds 32-bit offset space");
    }
  }

  // Sections must be mutually disjoint. The per-section checks above are
  // what memory safety rests on, but a re-stamped header could still
  // alias one section's bytes into another (offsets table over posting
  // bytes, say) — reject so the section table is structurally sound, not
  // merely in-bounds.
  std::array<ParsedHeader::Section, kNumSnapshotSections> sorted = h.sections;
  std::sort(sorted.begin(), sorted.end(),
            [](const ParsedHeader::Section& a, const ParsedHeader::Section& b) {
              return a.offset < b.offset;
            });
  uint64_t prev_end = kBinarySnapshotHeaderSize;
  for (const auto& s : sorted) {
    if (s.size == 0) continue;  // empty sections cannot alias anything
    if (s.offset < prev_end) return bad("overlapping sections");
    prev_end = s.offset + s.size;  // in-bounds per the checks above
  }
  return h;
}

/// Wires a validated header + backing bytes into a snapshot.
KgSnapshot Assemble(const ParsedHeader& h, std::string_view data,
                    std::shared_ptr<const void> backing) {
  KgSnapshot::RawParts parts;
  parts.num_nodes = h.num_nodes;
  parts.num_predicates = h.num_predicates;
  parts.num_triples = h.num_triples;
  parts.fingerprint = h.fingerprint;
  parts.schema_version = h.schema_version;
  for (size_t i = 0; i < kNumSnapshotSections; ++i) {
    parts.sections[i] = data.substr(h.sections[i].offset, h.sections[i].size);
  }
  return KgSnapshot::FromRawParts(parts, std::move(backing));
}

Result<KgSnapshot> ParseBinary(std::string_view data, BinaryVerify verify,
                               std::shared_ptr<const void> backing) {
  KG_ASSIGN_OR_RETURN(const ParsedHeader h, ValidateHeader(data));
  if (verify == BinaryVerify::kChecksum &&
      Checksum32(data.substr(kBinarySnapshotHeaderSize)) !=
          h.payload_checksum) {
    return Status::InvalidArgument("binary snapshot: payload checksum mismatch");
  }
  return Assemble(h, data, std::move(backing));
}

/// An mmap'd file region released with the last snapshot view into it.
struct Mapping {
  void* base = nullptr;
  size_t size = 0;

  ~Mapping() {
    if (base != nullptr) ::munmap(base, size);
  }
};

}  // namespace

std::string SerializeSnapshotBinary(const KgSnapshot& snapshot) {
  const auto sections = snapshot.SectionBytes();

  // Lay out the payload: sections in enum order, each 8-aligned.
  std::array<uint64_t, kNumSnapshotSections> offsets{};
  uint64_t at = kBinarySnapshotHeaderSize;
  for (size_t i = 0; i < kNumSnapshotSections; ++i) {
    at = (at + 7) & ~uint64_t{7};
    offsets[i] = at;
    at += sections[i].size();
  }

  std::string payload;
  payload.reserve(at - kBinarySnapshotHeaderSize);
  for (size_t i = 0; i < kNumSnapshotSections; ++i) {
    payload.append(
        offsets[i] - kBinarySnapshotHeaderSize - payload.size(), '\0');
    payload.append(sections[i]);
  }

  std::string out;
  out.reserve(kBinarySnapshotHeaderSize + payload.size());
  out.append(kBinarySnapshotMagic, 8);
  PutU32(&out, kBinarySnapshotContainerVersion);
  PutU32(&out, snapshot.schema_version());
  PutU64(&out, snapshot.num_nodes());
  PutU64(&out, snapshot.num_predicates());
  PutU64(&out, snapshot.num_triples());
  PutU64(&out, snapshot.Fingerprint());
  for (size_t i = 0; i < kNumSnapshotSections; ++i) {
    PutU64(&out, offsets[i]);
    PutU64(&out, sections[i].size());
  }
  PutU32(&out, Checksum32(payload));
  PutU32(&out, Checksum32(out));  // header checksum over all bytes so far
  out.append(payload);
  return out;
}

Result<KgSnapshot> DeserializeSnapshotBinary(std::string_view data,
                                             BinaryVerify verify) {
  // Copy into an 8-aligned heap buffer: the u32/u64 section views cast
  // to typed pointers, and a std::string caller buffer guarantees no
  // alignment. uint64_t allocation alignment covers every section type.
  const size_t words = (data.size() + 7) / 8;
  auto buf = std::make_shared<std::vector<uint64_t>>(words, 0);
  if (!data.empty()) {  // empty vector data() may be null; memcpy is nonnull
    std::memcpy(buf->data(), data.data(), data.size());
  }
  const std::string_view aligned(reinterpret_cast<const char*>(buf->data()),
                                 data.size());
  return ParseBinary(aligned, verify, std::move(buf));
}

Status SaveSnapshotBinary(const KgSnapshot& snapshot,
                          const std::string& path) {
  const std::string bytes = SerializeSnapshotBinary(snapshot);
  // mkstemp: concurrent saves to the same path must not stomp each
  // other's in-flight temp file (last rename still wins, atomically).
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) return Status::IoError("cannot create temp file for " + path);
  Status status = Status::OK();
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Status::IoError("write failed: " + tmp);
      break;
    }
    written += static_cast<size_t>(n);
  }
  // Durability before visibility: the bytes must be on stable storage
  // before rename publishes them under the final name, or a crash right
  // after the rename could leave an empty/partial file at `path`.
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IoError("fsync failed: " + tmp);
  }
  ::close(fd);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("rename failed: " + path);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  // Best-effort fsync of the directory so the rename itself survives a
  // crash; some filesystems refuse directory fsync, which is fine.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<KgSnapshot> LoadSnapshotBinary(const std::string& path,
                                      BinaryVerify verify) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("binary snapshot: empty file");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) return Status::IoError("mmap failed: " + path);
  auto mapping = std::make_shared<Mapping>();
  mapping->base = base;
  mapping->size = size;
  // Page alignment of the mapping base satisfies every section's
  // alignment; section offsets were checked relative to it.
  return ParseBinary(
      std::string_view(static_cast<const char*>(base), size), verify,
      std::move(mapping));
}

}  // namespace kg::serve
