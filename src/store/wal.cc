#include "store/wal.h"

#include <filesystem>
#include <sstream>

#include "common/bytes.h"
#include "common/strings.h"
#include "graph/serialization.h"

namespace kg::store {

Mutation Mutation::Upsert(std::string subject, std::string predicate,
                          std::string object, graph::NodeKind subject_kind,
                          graph::NodeKind object_kind,
                          graph::Provenance prov) {
  Mutation m;
  m.op = MutationOp::kUpsert;
  m.subject = std::move(subject);
  m.subject_kind = subject_kind;
  m.predicate = std::move(predicate);
  m.object = std::move(object);
  m.object_kind = object_kind;
  m.prov = std::move(prov);
  return m;
}

Mutation Mutation::Retract(std::string subject, std::string predicate,
                           std::string object, graph::NodeKind subject_kind,
                           graph::NodeKind object_kind) {
  Mutation m;
  m.op = MutationOp::kRetract;
  m.subject = std::move(subject);
  m.subject_kind = subject_kind;
  m.predicate = std::move(predicate);
  m.object = std::move(object);
  m.object_kind = object_kind;
  m.prov = graph::Provenance{"", 0.0, 0};
  return m;
}

std::string EncodeMutation(const Mutation& m) {
  std::ostringstream out;
  out << (m.op == MutationOp::kUpsert ? 'U' : 'R') << '\t'
      << graph::EscapeTsvField(m.subject) << '\t'
      << graph::NodeKindName(m.subject_kind) << '\t'
      << graph::EscapeTsvField(m.predicate) << '\t'
      << graph::EscapeTsvField(m.object) << '\t'
      << graph::NodeKindName(m.object_kind) << '\t'
      << graph::EscapeTsvField(m.prov.source) << '\t'
      // %.17g round-trips any double exactly, so a replayed provenance is
      // bit-identical to the logged one.
      << StrFormat("%.17g", m.prov.confidence) << '\t' << m.prov.timestamp;
  return out.str();
}

Result<Mutation> DecodeMutation(std::string_view payload) {
  const std::vector<std::string> fields = Split(payload, '\t');
  if (fields.size() != 9) {
    return Status::InvalidArgument(
        "mutation record needs 9 fields, got " +
        std::to_string(fields.size()));
  }
  Mutation m;
  if (fields[0] == "U") {
    m.op = MutationOp::kUpsert;
  } else if (fields[0] == "R") {
    m.op = MutationOp::kRetract;
  } else {
    return Status::InvalidArgument("unknown mutation op: " + fields[0]);
  }
  m.subject = graph::UnescapeTsvField(fields[1]);
  KG_ASSIGN_OR_RETURN(m.subject_kind, graph::ParseNodeKind(fields[2]));
  m.predicate = graph::UnescapeTsvField(fields[3]);
  m.object = graph::UnescapeTsvField(fields[4]);
  KG_ASSIGN_OR_RETURN(m.object_kind, graph::ParseNodeKind(fields[5]));
  m.prov.source = graph::UnescapeTsvField(fields[6]);
  try {
    m.prov.confidence = std::stod(fields[7]);
    m.prov.timestamp = std::stoll(fields[8]);
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad confidence/timestamp");
  }
  return m;
}

WalReplay ReplayWalBuffer(std::string_view data) {
  WalReplay replay;
  size_t offset = 0;
  for (;;) {
    const RecordScan record = ScanRecord(data.substr(offset));
    if (record.step != RecordStep::kRecord) break;
    auto decoded = DecodeMutation(record.payload);
    if (!decoded.ok()) break;
    replay.mutations.push_back(std::move(*decoded));
    replay.frame_offsets.push_back(offset);
    offset += record.size();
  }
  replay.valid_bytes = offset;
  replay.dropped_bytes = data.size() - offset;
  replay.clean = replay.dropped_bytes == 0;
  return replay;
}

Result<Wal> Wal::Open(const std::string& path, WalReplay* replay) {
  WalReplay scanned;
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    KG_ASSIGN_OR_RETURN(scanned, Replay(path));
    if (!scanned.clean) {
      // Drop the torn tail so future appends extend the valid prefix.
      std::filesystem::resize_file(path, scanned.valid_bytes, ec);
      if (ec) {
        return Status::IoError("cannot truncate torn WAL tail: " + path);
      }
    }
  }
  Wal wal;
  wal.path_ = path;
  wal.size_bytes_ = scanned.valid_bytes;
  wal.out_.open(path, std::ios::binary | std::ios::app);
  if (!wal.out_) return Status::IoError("cannot open WAL: " + path);
  if (replay != nullptr) *replay = std::move(scanned);
  return wal;
}

Result<WalReplay> Wal::Replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open WAL: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  return ReplayWalBuffer(data);
}

Status Wal::Append(const Mutation& m) {
  return AppendBatch(std::span<const Mutation>(&m, 1));
}

Status Wal::AppendBatch(std::span<const Mutation> mutations) {
  std::string buf;
  for (const Mutation& m : mutations) {
    AppendRecord(&buf, EncodeMutation(m));
  }
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  if (!out_) return Status::IoError("WAL append failed: " + path_);
  size_bytes_ += buf.size();
  return Status::OK();
}

}  // namespace kg::store
