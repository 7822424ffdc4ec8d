#include "store/wal.h"

#include <bit>
#include <filesystem>
#include <sstream>

#include "common/bytes.h"
#include "rpc/frame.h"

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

namespace {

void PutMutation(std::string* out, const Mutation& m) {
  PutU8(out, static_cast<uint8_t>(m.op));
  PutString(out, m.subject);
  PutU8(out, graph::NodeKindByte(m.subject_kind));
  PutString(out, m.predicate);
  PutString(out, m.object);
  PutU8(out, graph::NodeKindByte(m.object_kind));
  PutString(out, m.prov.source);
  PutU64(out, std::bit_cast<uint64_t>(m.prov.confidence));
  PutU64(out, static_cast<uint64_t>(m.prov.timestamp));
}

Result<graph::NodeKind> TakeNodeKind(ByteReader* reader) {
  KG_ASSIGN_OR_RETURN(const uint8_t byte, reader->TakeU8());
  return graph::NodeKindFromByte(byte);
}

Result<Mutation> TakeMutation(ByteReader* reader) {
  Mutation m;
  KG_ASSIGN_OR_RETURN(const uint8_t op, reader->TakeU8());
  if (op > static_cast<uint8_t>(MutationOp::kRetract)) {
    return Status::InvalidArgument("unknown mutation op byte: " +
                                   std::to_string(op));
  }
  m.op = static_cast<MutationOp>(op);
  KG_ASSIGN_OR_RETURN(m.subject, reader->TakeString());
  KG_ASSIGN_OR_RETURN(m.subject_kind, TakeNodeKind(reader));
  KG_ASSIGN_OR_RETURN(m.predicate, reader->TakeString());
  KG_ASSIGN_OR_RETURN(m.object, reader->TakeString());
  KG_ASSIGN_OR_RETURN(m.object_kind, TakeNodeKind(reader));
  KG_ASSIGN_OR_RETURN(m.prov.source, reader->TakeString());
  KG_ASSIGN_OR_RETURN(const uint64_t confidence, reader->TakeU64());
  m.prov.confidence = std::bit_cast<double>(confidence);
  KG_ASSIGN_OR_RETURN(const uint64_t timestamp, reader->TakeU64());
  m.prov.timestamp = static_cast<int64_t>(timestamp);
  return m;
}

}  // namespace

std::string EncodeMutation(const Mutation& m) {
  std::string out;
  PutMutation(&out, m);
  return out;
}

Result<std::string> EncodeCommit(std::span<const Mutation> mutations) {
  if (mutations.empty()) {
    return Status::InvalidArgument("a commit holds at least one mutation");
  }
  std::string out;
  PutU32(&out, static_cast<uint32_t>(mutations.size()));
  for (const Mutation& m : mutations) PutMutation(&out, m);
  if (kRecordHeaderBytes + out.size() > rpc::kMaxShippedRecordBytes) {
    return Status::InvalidArgument(
        "commit of " + std::to_string(mutations.size()) + " mutations is " +
        std::to_string(kRecordHeaderBytes + out.size()) +
        " record bytes; one kWalBatch frame carries at most " +
        std::to_string(rpc::kMaxShippedRecordBytes));
  }
  return out;
}

Result<std::vector<Mutation>> DecodeCommit(std::string_view payload) {
  ByteReader reader(payload);
  KG_ASSIGN_OR_RETURN(const uint32_t count, reader.TakeU32());
  if (count == 0) return Status::InvalidArgument("empty commit record");
  // Grown one decoded mutation at a time: the count is only believed as
  // far as the payload backs it.
  std::vector<Mutation> mutations;
  for (uint32_t i = 0; i < count; ++i) {
    KG_ASSIGN_OR_RETURN(Mutation m, TakeMutation(&reader));
    mutations.push_back(std::move(m));
  }
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return mutations;
}

Result<WalReplay> ReplayWalBuffer(std::string_view data) {
  WalReplay replay;
  size_t offset = 0;
  for (;;) {
    const RecordScan record = ScanRecord(data.substr(offset));
    if (record.step != RecordStep::kRecord) break;
    auto commit = DecodeCommit(record.payload);
    if (!commit.ok()) {
      return Status::InvalidArgument(
          "WAL record at offset " + std::to_string(offset) +
          " passes its checksum but does not decode: " +
          commit.status().message());
    }
    replay.commits.push_back(std::move(*commit));
    replay.record_offsets.push_back(offset);
    offset += record.size();
  }
  replay.valid_bytes = offset;
  replay.dropped_bytes = data.size() - offset;
  replay.clean = replay.dropped_bytes == 0;
  return replay;
}

Result<std::string> ReadWalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open WAL: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
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
  KG_ASSIGN_OR_RETURN(const std::string data, ReadWalFile(path));
  return ReplayWalBuffer(data);
}

Status Wal::AppendBatch(std::span<const Mutation> mutations) {
  if (mutations.empty()) return Status::OK();
  KG_ASSIGN_OR_RETURN(const std::string commit, EncodeCommit(mutations));
  std::string record;
  AppendRecord(&record, commit);
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) return Status::IoError("WAL append failed: " + path_);
  size_bytes_ += record.size();
  return Status::OK();
}

}  // namespace kg::store
