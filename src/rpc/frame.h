#ifndef KGRAPH_RPC_FRAME_H_
#define KGRAPH_RPC_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"
#include "serve/query_engine.h"

namespace kg::rpc {

/// Protocol generation of the wire format itself. Carried in every
/// message header; a decoder rejects frames from a different generation
/// before looking at the body, so incompatible peers fail fast with a
/// clean error instead of misparsing each other.
inline constexpr uint8_t kProtocolVersion = 1;

/// Bytes of the message header inside the payload: u8 protocol version,
/// u8 message type, u16 flags (reserved, zero), u32 request id.
inline constexpr size_t kMessageHeaderBytes = 8;

/// The message shapes of the protocol: the four request/response pairs
/// of the serving path, the three WAL-shipping messages of the
/// replication path (a subscriber sends kWalSubscribe once after the
/// handshake; the server then streams kWalBatch frames as the log grows
/// and kWalHeartbeat frames when it does not), and the introspection
/// pair (a handshaken client scrapes the server's live metrics / slow
/// queries / trace dump).
enum class MessageType : uint8_t {
  kHandshakeRequest = 0,   ///< First message on every connection.
  kHandshakeResponse = 1,
  kQueryRequest = 2,
  kQueryResponse = 3,
  kWalSubscribe = 4,       ///< Client: stream the WAL from this offset.
  kWalBatch = 5,           ///< Server: whole WAL records + checksum chain.
  kWalHeartbeat = 6,       ///< Server: liveness + log end while idle.
  kIntrospectRequest = 7,  ///< Client: scrape metrics/slow-ring/traces.
  kIntrospectResponse = 8,
};

/// Highest MessageType value the decoder accepts.
inline constexpr uint8_t kMaxMessageType =
    static_cast<uint8_t>(MessageType::kIntrospectResponse);

const char* MessageTypeName(MessageType type);

/// The one assigned bit of the u16 flags field: the message header is
/// followed by a trace-context extension. All other bits stay reserved
/// and must be zero.
inline constexpr uint16_t kFlagTraceContext = 0x1;

/// Bytes of the trace-context extension payload (after its own u8
/// length prefix): u64 trace id, u64 parent span id, u8 sampled.
inline constexpr uint8_t kTraceContextBytes = 17;

/// Distributed trace context carried across the wire so one request
/// yields one connected span tree across router -> shard -> store. The
/// ids come from the deterministic obs::Tracer scheme (Fnv1a64 of
/// seed|path), so same-seed runs propagate identical ids.
struct TraceContext {
  uint64_t trace_id = 0;        ///< Root span id of the request's tree.
  uint64_t parent_span_id = 0;  ///< Span on the sender that caused this.
  bool sampled = false;         ///< Receiver should record spans.
};

/// One decoded message. `request_id` correlates a response with its
/// request (the client assigns ids; the server echoes them). When the
/// sender attached a trace context, `has_trace` is set and `trace`
/// holds it.
struct Frame {
  uint8_t protocol_version = kProtocolVersion;
  MessageType type = MessageType::kQueryRequest;
  uint32_t request_id = 0;
  bool has_trace = false;
  TraceContext trace;
  std::string body;
};

/// Appends one framed message to `*buf` as one kg::AppendRecord record
/// (common/bytes.h, the WAL's envelope):
///   [u32le payload length][u32le Checksum32(payload)][payload]
/// where payload = [u8 version][u8 type][u16le flags=0][u32le request id]
/// [body]. The checksum covers the message header too, so a bit flip in
/// the version/type/id fields is caught like one in the body.
void AppendFrame(std::string* buf, MessageType type, uint32_t request_id,
                 std::string_view body);

/// Same, but with a trace-context extension when `trace` is non-null:
/// flags gains kFlagTraceContext and the header is followed by
/// [u8 ext_len=17][u64le trace id][u64le parent span id][u8 sampled]
/// before the body. A null `trace` encodes byte-identically to the
/// four-argument overload, so untraced peers keep their golden bytes.
void AppendFrame(std::string* buf, MessageType type, uint32_t request_id,
                 const TraceContext* trace, std::string_view body);

/// Incremental frame scanner for a byte stream. Feed() appends received
/// bytes; Next() finds each record with kg::ScanRecord and yields
/// complete frames until the buffer holds only a partial one. Any
/// malformed input — oversize length or one shorter than the message
/// header (both refused from the 8 header bytes), checksum mismatch,
/// wrong protocol version, unknown type, unassigned flag bits, bad
/// trace-context extension — parks the decoder in an error state (the
/// stream is unrecoverable once framing is lost; the connection must be
/// dropped). Never throws or crashes on arbitrary bytes
/// (rpc_frame_fuzz_test).
class FrameDecoder {
 public:
  enum class Step {
    kFrame,     ///< *out holds the next complete frame.
    kNeedMore,  ///< No complete frame buffered; feed more bytes.
    kError,     ///< Stream corrupt; see error(). Sticky.
  };

  void Feed(std::string_view bytes);
  Step Next(Frame* out);

  const Status& error() const { return error_; }
  /// Bytes buffered but not yet consumed by a complete frame.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  Status error_;
};

// ---- Message bodies -----------------------------------------------------
// All integers little-endian; all strings length-prefixed (u32le), so
// every encoding is injective and byte-deterministic. Decoders reject
// short bodies, out-of-range enums, and trailing garbage.

/// Client hello: the newest snapshot schema generation the client can
/// consume. The server refuses (kUnavailable) when its snapshot is
/// newer — the wire twin of serve::QueryEngine::TryExecute's check.
struct HandshakeRequest {
  uint32_t max_schema_version = 0;
};

/// Server reply: OK plus the serving snapshot's schema generation, or a
/// non-OK status explaining the refusal.
struct HandshakeResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint32_t schema_version = 0;
};

/// Query answer: the result rows on success, else the failure status.
/// kUnavailable is the load-shed/overload signal — retriable by design,
/// so the common retry/breaker machinery applies across the wire.
struct QueryResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  serve::QueryResult rows;
};

std::string EncodeHandshakeRequest(const HandshakeRequest& req);
Result<HandshakeRequest> DecodeHandshakeRequest(std::string_view body);

std::string EncodeHandshakeResponse(const HandshakeResponse& resp);
Result<HandshakeResponse> DecodeHandshakeResponse(std::string_view body);

/// Serializes a serve::Query (kind, node kind, k, then the four string
/// fields). Deterministic: equal queries encode byte-identically.
std::string EncodeQuery(const serve::Query& query);
Result<serve::Query> DecodeQuery(std::string_view body);

std::string EncodeQueryResponse(const QueryResponse& resp);
Result<QueryResponse> DecodeQueryResponse(std::string_view body);

// ---- WAL shipping (replication path) ------------------------------------

/// Subscriber hello: stream the primary's WAL to me starting at
/// `from_offset` (a record boundary the subscriber has verified —
/// byte offset 0 for a fresh replica, its persisted applied offset for
/// a catch-up resume).
struct WalSubscribe {
  uint64_t from_offset = 0;
};

/// One shipped slice of the primary's WAL: whole framed records
/// covering [start_offset, end_offset), plus `chain_after` — the
/// primary's Checksum32 chain value at end_offset — so the subscriber
/// proves its replayed prefix is byte-identical before serving from it.
/// `log_end` is the primary's current log end (lag = log_end -
/// end_offset). A non-OK `code` refuses the subscription (bad offset,
/// no log behind this server) and the connection closes after it.
struct WalBatch {
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint64_t start_offset = 0;
  uint64_t end_offset = 0;
  uint32_t chain_after = 0;
  uint64_t log_end = 0;
  std::string frames;
};

/// Payload bytes a kWalBatch frame spends besides the records it ships:
/// the message header, a trace extension (a traced subscription gets one
/// on every batch), and the WalBatch fields of an accepted batch (code,
/// empty message, start and end offsets, chain, log end, frames length).
inline constexpr size_t kWalBatchOverheadBytes =
    kMessageHeaderBytes + 1 + kTraceContextBytes + sizeof(uint8_t) +
    sizeof(uint32_t) + 2 * sizeof(uint64_t) + sizeof(uint32_t) +
    sizeof(uint64_t) + sizeof(uint32_t);

/// The largest WAL record, envelope included, that one kWalBatch frame can
/// carry. A commit is one record and ships whole, so this caps a commit:
/// store::EncodeCommit refuses a larger one.
inline constexpr size_t kMaxShippedRecordBytes =
    kMaxRecordBytes - kWalBatchOverheadBytes;

/// Idle-stream liveness: the log end and the chain value there, so a
/// fully-caught-up subscriber keeps verifying it has not diverged.
struct WalHeartbeat {
  uint64_t log_end = 0;
  uint32_t chain_at_end = 0;
};

std::string EncodeWalSubscribe(const WalSubscribe& req);
Result<WalSubscribe> DecodeWalSubscribe(std::string_view body);

std::string EncodeWalBatch(const WalBatch& batch);
Result<WalBatch> DecodeWalBatch(std::string_view body);

std::string EncodeWalHeartbeat(const WalHeartbeat& hb);
Result<WalHeartbeat> DecodeWalHeartbeat(std::string_view body);

// ---- Introspection (observability path) ----------------------------------

/// What a kIntrospectRequest asks the server to expose.
enum class IntrospectWhat : uint8_t {
  kMetricsJson = 0,        ///< MetricsRegistry::ToJson().
  kMetricsPrometheus = 1,  ///< MetricsRegistry::ToPrometheus().
  kSlowQueries = 2,        ///< SlowQueryRing::ToJson().
  kTrace = 3,              ///< Tracer::ToJson() span dump.
};

/// Highest IntrospectWhat value the decoder accepts.
inline constexpr uint8_t kMaxIntrospectWhat =
    static_cast<uint8_t>(IntrospectWhat::kTrace);

const char* IntrospectWhatName(IntrospectWhat what);

/// Client: expose one of your live observability surfaces.
struct IntrospectRequest {
  IntrospectWhat what = IntrospectWhat::kMetricsJson;
};

/// Server reply: the requested exposition in `payload` on success, else
/// a non-OK status (kInvalidArgument for a malformed request body,
/// kFailedPrecondition when the server has no such source wired).
struct IntrospectResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::string payload;
};

std::string EncodeIntrospectRequest(const IntrospectRequest& req);
Result<IntrospectRequest> DecodeIntrospectRequest(std::string_view body);

std::string EncodeIntrospectResponse(const IntrospectResponse& resp);
Result<IntrospectResponse> DecodeIntrospectResponse(std::string_view body);

}  // namespace kg::rpc

#endif  // KGRAPH_RPC_FRAME_H_
