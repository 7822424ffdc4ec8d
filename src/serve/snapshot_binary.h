#ifndef KGRAPH_SERVE_SNAPSHOT_BINARY_H_
#define KGRAPH_SERVE_SNAPSHOT_BINARY_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "serve/snapshot.h"

namespace kg::serve {

/// Container generation of the binary snapshot file itself — the header
/// layout and section framing. Independent of kSnapshotSchemaVersion,
/// which describes the *section contents* and is carried inside the
/// header: a future schema can ship in the same container.
inline constexpr uint32_t kBinarySnapshotContainerVersion = 2;

/// The 8-byte magic that opens every binary snapshot file.
inline constexpr char kBinarySnapshotMagic[8] = {'K', 'G', 'S', 'N',
                                                 'A', 'P', 'B', '\0'};

/// Fixed header size in bytes. Layout (all little-endian):
///   [0]   magic[8]
///   [8]   u32 container_version
///   [12]  u32 schema_version
///   [16]  u64 num_nodes
///   [24]  u64 num_predicates
///   [32]  u64 num_triples
///   [40]  u64 fingerprint
///   [48]  {u64 offset, u64 size}[kNumSnapshotSections] section table
///   [272] u32 payload_checksum   (Checksum32 of file[280, file_size))
///   [276] u32 header_checksum    (Checksum32 of file[0, 276))
/// Sections start at 8-byte-aligned offsets with zero padding between
/// them; the payload checksum covers the padding too, so *every* bit of
/// the file after the header is integrity-checked.
inline constexpr size_t kBinarySnapshotHeaderSize =
    8 + 4 + 4 + 4 * 8 + kNumSnapshotSections * 16 + 4 + 4;
static_assert(kBinarySnapshotHeaderSize % 8 == 0);

/// How much of a binary snapshot to verify at load time.
enum class BinaryVerify {
  /// Structural validation only: magic, versions, header checksum, and
  /// every section bounds- and size-checked against the header counts.
  /// O(1) work — no byte of the payload is touched, so an mmap'd load
  /// stays O(pages touched) and pages fault in lazily as queries read
  /// them. For files whose integrity is already trusted (local cache,
  /// checksummed transport).
  kHeader,
  /// kHeader plus the full payload Checksum32. O(file size), touches
  /// every page once. Any bit flip anywhere in the file is rejected.
  kChecksum,
};

/// Serializes to the binary container format. Deterministic: equal
/// snapshots serialize byte-identically.
std::string SerializeSnapshotBinary(const KgSnapshot& snapshot);

/// Parses binary bytes into a snapshot backed by a fresh 8-aligned heap
/// copy of `data` (the copy is what makes arbitrary test/fuzz buffers
/// safe — std::string storage guarantees no alignment). Rejects with
/// InvalidArgument on any structural violation or an older container
/// version, Unavailable on a newer one.
Result<KgSnapshot> DeserializeSnapshotBinary(
    std::string_view data, BinaryVerify verify = BinaryVerify::kChecksum);

/// Writes `SerializeSnapshotBinary` output to `path` (atomic: temp file
/// then rename).
Status SaveSnapshotBinary(const KgSnapshot& snapshot,
                          const std::string& path);

/// mmaps `path` read-only and wraps it as a snapshot without copying:
/// load cost is validation plus O(pages touched) — with kHeader that is
/// a handful of pages regardless of file size. The mapping lives as long
/// as the returned snapshot (or any copy of it).
Result<KgSnapshot> LoadSnapshotBinary(
    const std::string& path, BinaryVerify verify = BinaryVerify::kChecksum);

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_SNAPSHOT_BINARY_H_
