#include "rpc/frame.h"

namespace kg::rpc {

namespace {

Result<StatusCode> TakeStatusCode(ByteReader* reader) {
  KG_ASSIGN_OR_RETURN(const uint8_t raw, reader->TakeU8());
  const auto code = StatusCodeFromInt(raw);
  if (!code.has_value()) {
    return Status::InvalidArgument("unknown status code on wire: " +
                                   std::to_string(raw));
  }
  return *code;
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHandshakeRequest:
      return "handshake_request";
    case MessageType::kHandshakeResponse:
      return "handshake_response";
    case MessageType::kQueryRequest:
      return "query_request";
    case MessageType::kQueryResponse:
      return "query_response";
    case MessageType::kWalSubscribe:
      return "wal_subscribe";
    case MessageType::kWalBatch:
      return "wal_batch";
    case MessageType::kWalHeartbeat:
      return "wal_heartbeat";
    case MessageType::kIntrospectRequest:
      return "introspect_request";
    case MessageType::kIntrospectResponse:
      return "introspect_response";
  }
  return "unknown";
}

const char* IntrospectWhatName(IntrospectWhat what) {
  switch (what) {
    case IntrospectWhat::kMetricsJson:
      return "metrics_json";
    case IntrospectWhat::kMetricsPrometheus:
      return "metrics_prometheus";
    case IntrospectWhat::kSlowQueries:
      return "slow_queries";
    case IntrospectWhat::kTrace:
      return "trace";
  }
  return "unknown";
}

void AppendFrame(std::string* buf, MessageType type, uint32_t request_id,
                 std::string_view body) {
  AppendFrame(buf, type, request_id, nullptr, body);
}

void AppendFrame(std::string* buf, MessageType type, uint32_t request_id,
                 const TraceContext* trace, std::string_view body) {
  std::string payload;
  payload.reserve(kMessageHeaderBytes +
                  (trace != nullptr ? 1 + kTraceContextBytes : 0) +
                  body.size());
  PutU8(&payload, kProtocolVersion);
  PutU8(&payload, static_cast<uint8_t>(type));
  PutU16(&payload, trace != nullptr ? kFlagTraceContext : 0);
  PutU32(&payload, request_id);
  if (trace != nullptr) {
    PutU8(&payload, kTraceContextBytes);
    PutU64(&payload, trace->trace_id);
    PutU64(&payload, trace->parent_span_id);
    PutU8(&payload, trace->sampled ? 1 : 0);
  }
  payload.append(body);
  AppendRecord(buf, payload);
}

void FrameDecoder::Feed(std::string_view bytes) {
  // Compact lazily: drop consumed prefix before growing the buffer.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

FrameDecoder::Step FrameDecoder::Next(Frame* out) {
  if (!error_.ok()) return Step::kError;
  const auto fail = [this](std::string why) {
    error_ = Status::InvalidArgument(std::move(why));
    return Step::kError;
  };
  const RecordScan record =
      ScanRecord(std::string_view(buf_).substr(pos_), kMessageHeaderBytes);
  switch (record.step) {
    case RecordStep::kNeedMore:
      return Step::kNeedMore;
    case RecordStep::kTooLong:
      return fail("frame length " + std::to_string(record.length) +
                  " exceeds limit");
    case RecordStep::kTooShort:
      return fail("frame length " + std::to_string(record.length) +
                  " shorter than message header");
    case RecordStep::kBadChecksum:
      return fail("frame checksum mismatch");
    case RecordStep::kRecord:
      break;
  }
  // The scan guaranteed kMessageHeaderBytes of payload, so the four
  // header fields cannot come up short.
  ByteReader payload(record.payload);
  const uint8_t version = *payload.TakeU8();
  if (version != kProtocolVersion) {
    return fail("unsupported protocol version " + std::to_string(version));
  }
  const uint8_t raw_type = *payload.TakeU8();
  if (raw_type > kMaxMessageType) {
    return fail("unknown message type " + std::to_string(raw_type));
  }
  const uint16_t flags = *payload.TakeU16();
  if ((flags & ~kFlagTraceContext) != 0) {
    return fail("nonzero reserved flags " + std::to_string(flags));
  }
  const uint32_t request_id = *payload.TakeU32();
  out->has_trace = false;
  out->trace = TraceContext{};
  if ((flags & kFlagTraceContext) != 0) {
    // [u8 ext_len=17][u64le trace id][u64le parent span id][u8 sampled].
    // The length prefix lets a future extension grow without moving the
    // body, but today exactly one layout is valid — anything else is a
    // peer this decoder cannot trust.
    const Result<uint8_t> ext_len = payload.TakeU8();
    if (!ext_len.ok()) return fail("trace flag set but extension absent");
    if (*ext_len != kTraceContextBytes) {
      return fail("trace extension length " + std::to_string(*ext_len) +
                  " is not " + std::to_string(kTraceContextBytes));
    }
    if (payload.remaining() < kTraceContextBytes) {
      return fail("trace extension truncated");
    }
    out->trace.trace_id = *payload.TakeU64();
    out->trace.parent_span_id = *payload.TakeU64();
    const uint8_t sampled = *payload.TakeU8();
    if (sampled > 1) {
      return fail("trace sampled byte " + std::to_string(sampled) +
                  " is not 0 or 1");
    }
    out->trace.sampled = sampled != 0;
    out->has_trace = true;
  }
  out->protocol_version = version;
  out->type = static_cast<MessageType>(raw_type);
  out->request_id = request_id;
  out->body.assign(record.payload.substr(payload.pos()));
  pos_ += record.size();
  return Step::kFrame;
}

// ---- Handshake ----------------------------------------------------------

std::string EncodeHandshakeRequest(const HandshakeRequest& req) {
  std::string body;
  PutU32(&body, req.max_schema_version);
  return body;
}

Result<HandshakeRequest> DecodeHandshakeRequest(std::string_view body) {
  ByteReader reader(body);
  HandshakeRequest req;
  KG_ASSIGN_OR_RETURN(req.max_schema_version, reader.TakeU32());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return req;
}

std::string EncodeHandshakeResponse(const HandshakeResponse& resp) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(resp.code));
  PutString(&body, resp.message);
  PutU32(&body, resp.schema_version);
  return body;
}

Result<HandshakeResponse> DecodeHandshakeResponse(std::string_view body) {
  ByteReader reader(body);
  HandshakeResponse resp;
  KG_ASSIGN_OR_RETURN(resp.code, TakeStatusCode(&reader));
  KG_ASSIGN_OR_RETURN(resp.message, reader.TakeString());
  KG_ASSIGN_OR_RETURN(resp.schema_version, reader.TakeU32());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return resp;
}

// ---- Query --------------------------------------------------------------

std::string EncodeQuery(const serve::Query& query) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(query.kind));
  PutU8(&body, graph::NodeKindByte(query.node_kind));
  PutU64(&body, query.k);
  PutString(&body, query.node);
  PutString(&body, query.predicate);
  PutString(&body, query.type_name);
  PutString(&body, query.type_predicate);
  return body;
}

Result<serve::Query> DecodeQuery(std::string_view body) {
  ByteReader reader(body);
  serve::Query query;
  KG_ASSIGN_OR_RETURN(const uint8_t raw_kind, reader.TakeU8());
  if (raw_kind >= serve::kNumQueryKinds) {
    return Status::InvalidArgument("unknown query kind on wire: " +
                                   std::to_string(raw_kind));
  }
  query.kind = static_cast<serve::QueryKind>(raw_kind);
  KG_ASSIGN_OR_RETURN(const uint8_t raw_node_kind, reader.TakeU8());
  KG_ASSIGN_OR_RETURN(query.node_kind,
                      graph::NodeKindFromByte(raw_node_kind));
  KG_ASSIGN_OR_RETURN(const uint64_t k, reader.TakeU64());
  query.k = static_cast<size_t>(k);
  KG_ASSIGN_OR_RETURN(query.node, reader.TakeString());
  KG_ASSIGN_OR_RETURN(query.predicate, reader.TakeString());
  KG_ASSIGN_OR_RETURN(query.type_name, reader.TakeString());
  KG_ASSIGN_OR_RETURN(query.type_predicate, reader.TakeString());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return query;
}

// ---- Query response -----------------------------------------------------

std::string EncodeQueryResponse(const QueryResponse& resp) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(resp.code));
  PutString(&body, resp.message);
  PutU32(&body, static_cast<uint32_t>(resp.rows.size()));
  for (const std::string& row : resp.rows) {
    PutString(&body, row);
  }
  return body;
}

Result<QueryResponse> DecodeQueryResponse(std::string_view body) {
  ByteReader reader(body);
  QueryResponse resp;
  KG_ASSIGN_OR_RETURN(resp.code, TakeStatusCode(&reader));
  KG_ASSIGN_OR_RETURN(resp.message, reader.TakeString());
  KG_ASSIGN_OR_RETURN(const uint32_t rows, reader.TakeU32());
  // Each row costs at least its 4-byte length prefix; a count promising
  // more rows than the body could hold is corruption, not data.
  if (static_cast<uint64_t>(rows) * 4 > body.size()) {
    return Status::InvalidArgument("row count " + std::to_string(rows) +
                                   " exceeds body capacity");
  }
  resp.rows.reserve(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    KG_ASSIGN_OR_RETURN(std::string row, reader.TakeString());
    resp.rows.push_back(std::move(row));
  }
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return resp;
}

// ---- WAL shipping -------------------------------------------------------

std::string EncodeWalSubscribe(const WalSubscribe& req) {
  std::string body;
  PutU64(&body, req.from_offset);
  return body;
}

Result<WalSubscribe> DecodeWalSubscribe(std::string_view body) {
  ByteReader reader(body);
  WalSubscribe req;
  KG_ASSIGN_OR_RETURN(req.from_offset, reader.TakeU64());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return req;
}

std::string EncodeWalBatch(const WalBatch& batch) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(batch.code));
  PutString(&body, batch.message);
  PutU64(&body, batch.start_offset);
  PutU64(&body, batch.end_offset);
  PutU32(&body, batch.chain_after);
  PutU64(&body, batch.log_end);
  PutString(&body, batch.frames);
  return body;
}

Result<WalBatch> DecodeWalBatch(std::string_view body) {
  ByteReader reader(body);
  WalBatch batch;
  KG_ASSIGN_OR_RETURN(batch.code, TakeStatusCode(&reader));
  KG_ASSIGN_OR_RETURN(batch.message, reader.TakeString());
  KG_ASSIGN_OR_RETURN(batch.start_offset, reader.TakeU64());
  KG_ASSIGN_OR_RETURN(batch.end_offset, reader.TakeU64());
  KG_ASSIGN_OR_RETURN(batch.chain_after, reader.TakeU32());
  KG_ASSIGN_OR_RETURN(batch.log_end, reader.TakeU64());
  KG_ASSIGN_OR_RETURN(batch.frames, reader.TakeString());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  if (batch.end_offset < batch.start_offset ||
      batch.end_offset - batch.start_offset != batch.frames.size()) {
    return Status::InvalidArgument(
        "wal batch offsets disagree with frame bytes");
  }
  return batch;
}

std::string EncodeWalHeartbeat(const WalHeartbeat& hb) {
  std::string body;
  PutU64(&body, hb.log_end);
  PutU32(&body, hb.chain_at_end);
  return body;
}

Result<WalHeartbeat> DecodeWalHeartbeat(std::string_view body) {
  ByteReader reader(body);
  WalHeartbeat hb;
  KG_ASSIGN_OR_RETURN(hb.log_end, reader.TakeU64());
  KG_ASSIGN_OR_RETURN(hb.chain_at_end, reader.TakeU32());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return hb;
}

// ---- Introspection ------------------------------------------------------

std::string EncodeIntrospectRequest(const IntrospectRequest& req) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(req.what));
  return body;
}

Result<IntrospectRequest> DecodeIntrospectRequest(std::string_view body) {
  ByteReader reader(body);
  IntrospectRequest req;
  KG_ASSIGN_OR_RETURN(const uint8_t raw, reader.TakeU8());
  if (raw > kMaxIntrospectWhat) {
    return Status::InvalidArgument("unknown introspect selector on wire: " +
                                   std::to_string(raw));
  }
  req.what = static_cast<IntrospectWhat>(raw);
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return req;
}

std::string EncodeIntrospectResponse(const IntrospectResponse& resp) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(resp.code));
  PutString(&body, resp.message);
  PutString(&body, resp.payload);
  return body;
}

Result<IntrospectResponse> DecodeIntrospectResponse(std::string_view body) {
  ByteReader reader(body);
  IntrospectResponse resp;
  KG_ASSIGN_OR_RETURN(resp.code, TakeStatusCode(&reader));
  KG_ASSIGN_OR_RETURN(resp.message, reader.TakeString());
  KG_ASSIGN_OR_RETURN(resp.payload, reader.TakeString());
  KG_RETURN_IF_ERROR(reader.ExpectEnd());
  return resp;
}

}  // namespace kg::rpc
