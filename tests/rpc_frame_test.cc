// Wire-format tests for kg::rpc framing: golden byte layouts (the
// format is a contract — these bytes may never change silently),
// round-trips for every message body, header versioning rejects, and
// the incremental decoder's behavior on split, batched, and trailing
// input.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"
#include "rpc/frame.h"

namespace kg::rpc {
namespace {

std::string EncodeFrame(MessageType type, uint32_t request_id,
                        std::string_view body) {
  std::string buf;
  AppendFrame(&buf, type, request_id, body);
  return buf;
}

// After hand-mutating payload bytes, rewrite the frame checksum so only
// the mutated field's own validation can fire.
void FixupChecksum(std::string* frame) {
  const std::string_view payload(frame->data() + kRecordHeaderBytes,
                                 frame->size() - kRecordHeaderBytes);
  const uint32_t checksum = Checksum32(payload);
  for (int i = 0; i < 4; ++i) {
    (*frame)[4 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
}

// ---- Golden bytes -------------------------------------------------------

TEST(RpcFrameTest, GoldenHandshakeRequestFrame) {
  HandshakeRequest req;
  req.max_schema_version = 1;
  const std::string frame = EncodeFrame(MessageType::kHandshakeRequest, 7,
                                        EncodeHandshakeRequest(req));
  const std::vector<uint8_t> expected = {
      0x0c, 0x00, 0x00, 0x00,  // payload length = 12
      0x1a, 0x9f, 0x33, 0xc1,  // Checksum32(payload) = 0xc1339f1a
      0x01,                    // protocol version 1
      0x00,                    // type = handshake request
      0x00, 0x00,              // flags, reserved
      0x07, 0x00, 0x00, 0x00,  // request id = 7
      0x01, 0x00, 0x00, 0x00,  // max schema version = 1
  };
  ASSERT_EQ(frame.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(frame[i]), expected[i]) << "byte " << i;
  }
}

TEST(RpcFrameTest, GoldenQueryRequestFrame) {
  const serve::Query query = serve::Query::PointLookup("a", "p");
  const std::string frame =
      EncodeFrame(MessageType::kQueryRequest, 42, EncodeQuery(query));
  const std::vector<uint8_t> expected = {
      0x28, 0x00, 0x00, 0x00,  // payload length = 40
      0x63, 0xa1, 0x3c, 0x11,  // Checksum32(payload) = 0x113ca163
      0x01, 0x02, 0x00, 0x00,  // version 1, type = query request, flags
      0x2a, 0x00, 0x00, 0x00,  // request id = 42
      0x00,                    // kind = point lookup
      0x00,                    // node kind = entity
      0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // k = 10
      0x01, 0x00, 0x00, 0x00, 'a',                     // node
      0x01, 0x00, 0x00, 0x00, 'p',                     // predicate
      0x00, 0x00, 0x00, 0x00,                          // type name = ""
      0x04, 0x00, 0x00, 0x00, 't', 'y', 'p', 'e',      // type predicate
  };
  ASSERT_EQ(frame.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(frame[i]), expected[i]) << "byte " << i;
  }
}

TEST(RpcFrameTest, GoldenQueryRequestFrameWithTraceContext) {
  const serve::Query query = serve::Query::PointLookup("a", "p");
  TraceContext trace;
  trace.trace_id = 0x1122334455667788ULL;
  trace.parent_span_id = 0x99aabbccddeeff00ULL;
  trace.sampled = true;
  std::string frame;
  AppendFrame(&frame, MessageType::kQueryRequest, 42, &trace,
              EncodeQuery(query));
  const std::vector<uint8_t> expected_payload = {
      0x01, 0x02,              // version 1, type = query request
      0x01, 0x00,              // flags: trace context present
      0x2a, 0x00, 0x00, 0x00,  // request id = 42
      0x11,                    // extension length = 17
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // trace id, LE
      0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99,  // parent span, LE
      0x01,                                            // sampled
      // Body: identical to the untraced golden frame — the extension
      // sits between the message header and the body.
      0x00,                    // kind = point lookup
      0x00,                    // node kind = entity
      0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // k = 10
      0x01, 0x00, 0x00, 0x00, 'a',                     // node
      0x01, 0x00, 0x00, 0x00, 'p',                     // predicate
      0x00, 0x00, 0x00, 0x00,                          // type name = ""
      0x04, 0x00, 0x00, 0x00, 't', 'y', 'p', 'e',      // type predicate
  };
  ASSERT_EQ(frame.size(), kRecordHeaderBytes + expected_payload.size());
  // Length prefix covers the whole payload including the extension.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(frame[i]),
              (expected_payload.size() >> (8 * i)) & 0xff)
        << "length byte " << i;
  }
  // Checksum covers the extension bytes too.
  const uint32_t checksum = Checksum32(std::string_view(
      reinterpret_cast<const char*>(expected_payload.data()),
      expected_payload.size()));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(frame[4 + i]), (checksum >> (8 * i)) & 0xff)
        << "checksum byte " << i;
  }
  for (size_t i = 0; i < expected_payload.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(frame[kRecordHeaderBytes + i]),
              expected_payload[i])
        << "payload byte " << i;
  }
}

TEST(RpcFrameTest, NullTraceContextLeavesBytesUnchanged) {
  const std::string body = EncodeQuery(serve::Query::Neighborhood("n"));
  std::string four_arg;
  AppendFrame(&four_arg, MessageType::kQueryRequest, 9, body);
  std::string five_arg_null;
  AppendFrame(&five_arg_null, MessageType::kQueryRequest, 9, nullptr, body);
  EXPECT_EQ(four_arg, five_arg_null);
}

TEST(RpcFrameTest, ChecksumCoversMessageHeader) {
  // A flip in the request id — inside the message header, outside the
  // body — must be caught by the frame checksum.
  std::string frame = EncodeFrame(MessageType::kQueryRequest, 42,
                                  EncodeQuery(serve::Query::Neighborhood("n")));
  frame[kRecordHeaderBytes + 4] ^= 0x01;  // low byte of request id
  FrameDecoder decoder;
  decoder.Feed(frame);
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
  EXPECT_NE(decoder.error().message().find("checksum"), std::string::npos);
}

// ---- Round-trips --------------------------------------------------------

TEST(RpcFrameTest, HandshakeRoundTrip) {
  HandshakeRequest req;
  req.max_schema_version = 3;
  auto req2 = DecodeHandshakeRequest(EncodeHandshakeRequest(req));
  ASSERT_TRUE(req2.ok()) << req2.status();
  EXPECT_EQ(req2->max_schema_version, 3u);

  HandshakeResponse resp;
  resp.code = StatusCode::kUnavailable;
  resp.message = "schema too new";
  resp.schema_version = 9;
  auto resp2 = DecodeHandshakeResponse(EncodeHandshakeResponse(resp));
  ASSERT_TRUE(resp2.ok()) << resp2.status();
  EXPECT_EQ(resp2->code, StatusCode::kUnavailable);
  EXPECT_EQ(resp2->message, "schema too new");
  EXPECT_EQ(resp2->schema_version, 9u);
}

TEST(RpcFrameTest, QueryRoundTripAllKindsAndHostileStrings) {
  std::vector<serve::Query> queries = {
      serve::Query::PointLookup("tab\there", "pr\ned", graph::NodeKind::kText),
      serve::Query::Neighborhood("", graph::NodeKind::kClass),
      serve::Query::AttributeByType("Per\x00son", "attr", "member_of"),
      serve::Query::TopKRelated("h\xc3\xa9llo", 123456789, graph::NodeKind::kEntity),
  };
  queries[2].type_name = std::string("Per\0son", 7);  // Embedded NUL.
  for (const serve::Query& q : queries) {
    auto decoded = DecodeQuery(EncodeQuery(q));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    // CacheKey is injective over query fields, so equal keys mean equal
    // queries.
    EXPECT_EQ(decoded->CacheKey(), q.CacheKey());
  }
}

TEST(RpcFrameTest, QueryResponseRoundTrip) {
  QueryResponse resp;
  resp.rows = {"E:alice\t3", "", "out\tacted_in\tE:movie\nwith newline"};
  auto decoded = DecodeQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->code, StatusCode::kOk);
  EXPECT_EQ(decoded->rows, resp.rows);

  QueryResponse err;
  err.code = StatusCode::kInvalidArgument;
  err.message = "bad query";
  auto decoded_err = DecodeQueryResponse(EncodeQueryResponse(err));
  ASSERT_TRUE(decoded_err.ok()) << decoded_err.status();
  EXPECT_EQ(decoded_err->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded_err->message, "bad query");
  EXPECT_TRUE(decoded_err->rows.empty());
}

TEST(RpcFrameTest, TraceContextRoundTrip) {
  for (const bool sampled : {false, true}) {
    TraceContext trace;
    trace.trace_id = 0xdeadbeefcafef00dULL;
    trace.parent_span_id = 0x0123456789abcdefULL;
    trace.sampled = sampled;
    const std::string body = EncodeQuery(serve::Query::PointLookup("n", "p"));
    std::string frame;
    AppendFrame(&frame, MessageType::kQueryRequest, 17, &trace, body);
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    ASSERT_EQ(decoder.Next(&out), FrameDecoder::Step::kFrame)
        << decoder.error();
    EXPECT_EQ(out.type, MessageType::kQueryRequest);
    EXPECT_EQ(out.request_id, 17u);
    ASSERT_TRUE(out.has_trace);
    EXPECT_EQ(out.trace.trace_id, trace.trace_id);
    EXPECT_EQ(out.trace.parent_span_id, trace.parent_span_id);
    EXPECT_EQ(out.trace.sampled, sampled);
    EXPECT_EQ(out.body, body);  // Extension must not leak into the body.
  }
}

TEST(RpcFrameTest, UntracedFrameDecodesWithoutTrace) {
  const std::string frame = EncodeFrame(
      MessageType::kQueryRequest, 5, EncodeQuery(serve::Query::Neighborhood("n")));
  FrameDecoder decoder;
  decoder.Feed(frame);
  Frame out;
  ASSERT_EQ(decoder.Next(&out), FrameDecoder::Step::kFrame);
  EXPECT_FALSE(out.has_trace);
}

TEST(RpcFrameTest, RejectsMalformedTraceExtension) {
  TraceContext trace;
  trace.trace_id = 1;
  trace.parent_span_id = 2;
  trace.sampled = true;
  const std::string body = EncodeQuery(serve::Query::Neighborhood("n"));
  std::string traced;
  AppendFrame(&traced, MessageType::kQueryRequest, 3, &trace, body);
  const size_t ext_at = kRecordHeaderBytes + kMessageHeaderBytes;

  {
    // Wrong extension length byte.
    std::string frame = traced;
    frame[ext_at] = 16;
    FixupChecksum(&frame);
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
    EXPECT_NE(decoder.error().message().find("is not"), std::string::npos);
  }
  {
    // Sampled byte out of range.
    std::string frame = traced;
    frame[ext_at + 1 + 16] = 2;
    FixupChecksum(&frame);
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
    EXPECT_NE(decoder.error().message().find("sampled"), std::string::npos);
  }
  {
    // Declared extension length of 17, but the payload ends mid-extension.
    std::string frame;
    AppendFrame(&frame, MessageType::kHandshakeRequest, 1, &trace,
                std::string_view());
    const size_t new_payload = kMessageHeaderBytes + 1 + 10;
    frame.resize(kRecordHeaderBytes + new_payload);
    for (int i = 0; i < 4; ++i) {
      frame[i] = static_cast<char>((new_payload >> (8 * i)) & 0xff);
    }
    FixupChecksum(&frame);
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
    EXPECT_NE(decoder.error().message().find("truncated"), std::string::npos);
  }
  {
    // Trace flag set but no room for any extension: payload is just the
    // message header.
    std::string frame;
    AppendFrame(&frame, MessageType::kHandshakeRequest, 1,
                std::string_view());
    frame[kRecordHeaderBytes + 2] = 1;  // Set the trace flag.
    FixupChecksum(&frame);
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
    EXPECT_NE(decoder.error().message().find("absent"), std::string::npos);
  }
}

// ---- Header versioning --------------------------------------------------

TEST(RpcFrameTest, RejectsWrongProtocolVersion) {
  std::string frame = EncodeFrame(MessageType::kQueryRequest, 1,
                                  EncodeQuery(serve::Query::Neighborhood("n")));
  // Rewrite the version byte and fix up the checksum so only the
  // version check can fire.
  frame[kRecordHeaderBytes] = 2;
  const std::string_view payload(frame.data() + kRecordHeaderBytes,
                                 frame.size() - kRecordHeaderBytes);
  const uint32_t checksum = Checksum32(payload);
  for (int i = 0; i < 4; ++i) {
    frame[4 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  FrameDecoder decoder;
  decoder.Feed(frame);
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
  EXPECT_NE(decoder.error().message().find("protocol version"),
            std::string::npos);
}

TEST(RpcFrameTest, RejectsUnknownMessageTypeAndNonzeroFlags) {
  for (const auto& [offset, value, what] :
       std::vector<std::tuple<size_t, char, std::string>>{
           {1, static_cast<char>(kMaxMessageType + 1), "message type"},
           // Bit 0x1 is the (valid) trace-context flag; bit 0x2 is the
           // lowest still-reserved bit.
           {2, 2, "flags"}}) {
    std::string frame =
        EncodeFrame(MessageType::kQueryRequest, 1,
                    EncodeQuery(serve::Query::Neighborhood("n")));
    frame[kRecordHeaderBytes + offset] = value;
    const std::string_view payload(frame.data() + kRecordHeaderBytes,
                                   frame.size() - kRecordHeaderBytes);
    const uint32_t checksum = Checksum32(payload);
    for (int i = 0; i < 4; ++i) {
      frame[4 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
    }
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError) << what;
    EXPECT_NE(decoder.error().message().find(what), std::string::npos);
  }
}

TEST(RpcFrameTest, RejectsOversizeDeclaredLength) {
  std::string frame;
  const uint32_t length = kMaxRecordBytes + 1;
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  frame.append(4, '\0');  // Checksum, never reached.
  FrameDecoder decoder;
  decoder.Feed(frame);
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
  EXPECT_NE(decoder.error().message().find("exceeds limit"),
            std::string::npos);
}

// kMaxShippedRecordBytes is derived from the kWalBatch layout: a record
// of exactly that size, shipped over a traced subscription (whose batches
// carry the trace extension), fills one frame to kMaxRecordBytes and
// decodes; one byte more makes a frame the decoder refuses.
TEST(RpcFrameTest, LargestShippedRecordFillsOneTracedWalBatchFrame) {
  TraceContext trace;
  trace.trace_id = 1;
  trace.parent_span_id = 2;
  trace.sampled = true;
  WalBatch batch;
  batch.frames.assign(kMaxShippedRecordBytes, 'r');
  batch.end_offset = batch.frames.size();
  batch.log_end = batch.end_offset;
  std::string frame;
  AppendFrame(&frame, MessageType::kWalBatch, 9, &trace,
              EncodeWalBatch(batch));
  EXPECT_EQ(frame.size(), kRecordHeaderBytes + kMaxRecordBytes);
  FrameDecoder decoder;
  decoder.Feed(frame);
  Frame out;
  ASSERT_EQ(decoder.Next(&out), FrameDecoder::Step::kFrame)
      << decoder.error();
  auto decoded = DecodeWalBatch(out.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->frames.size(), kMaxShippedRecordBytes);

  batch.frames.push_back('r');
  batch.end_offset = batch.log_end = batch.frames.size();
  frame.clear();
  AppendFrame(&frame, MessageType::kWalBatch, 9, &trace,
              EncodeWalBatch(batch));
  FrameDecoder refusing;
  refusing.Feed(frame);
  EXPECT_EQ(refusing.Next(&out), FrameDecoder::Step::kError);
}

// ---- Incremental decoding ----------------------------------------------

TEST(RpcFrameTest, DecodesByteAtATimeAndBatched) {
  std::string stream;
  for (uint32_t id = 1; id <= 5; ++id) {
    AppendFrame(&stream, MessageType::kQueryRequest, id,
                EncodeQuery(serve::Query::PointLookup(
                    "node" + std::to_string(id), "p")));
  }

  // One byte at a time.
  FrameDecoder dribble;
  std::vector<uint32_t> seen;
  for (char c : stream) {
    dribble.Feed(std::string_view(&c, 1));
    Frame out;
    while (dribble.Next(&out) == FrameDecoder::Step::kFrame) {
      seen.push_back(out.request_id);
    }
  }
  EXPECT_EQ(seen, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(dribble.buffered_bytes(), 0u);

  // Everything in one Feed.
  FrameDecoder batch;
  batch.Feed(stream);
  seen.clear();
  Frame out;
  while (batch.Next(&out) == FrameDecoder::Step::kFrame) {
    seen.push_back(out.request_id);
  }
  EXPECT_EQ(seen, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
}

TEST(RpcFrameTest, ErrorStateIsSticky) {
  std::string good = EncodeFrame(MessageType::kQueryRequest, 1,
                                 EncodeQuery(serve::Query::Neighborhood("n")));
  std::string bad = good;
  bad[kRecordHeaderBytes + kMessageHeaderBytes] ^= 0xff;  // Body corruption.
  FrameDecoder decoder;
  decoder.Feed(bad);
  decoder.Feed(good);  // A valid frame after the bad one must not revive it.
  Frame out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError);
}

TEST(RpcFrameTest, BodyDecodersRejectTrailingBytes) {
  std::string body = EncodeHandshakeRequest(HandshakeRequest{1});
  body.push_back('\0');
  EXPECT_FALSE(DecodeHandshakeRequest(body).ok());

  std::string qbody = EncodeQuery(serve::Query::Neighborhood("n"));
  qbody.append("xx");
  EXPECT_FALSE(DecodeQuery(qbody).ok());
}

TEST(RpcFrameTest, QueryResponseRejectsAbsurdRowCount) {
  QueryResponse resp;
  std::string body = EncodeQueryResponse(resp);
  // Rewrite the row count (last 4 bytes of an empty response) to a
  // value the body cannot possibly hold.
  const size_t count_at = body.size() - 4;
  for (int i = 0; i < 4; ++i) body[count_at + i] = static_cast<char>(0xff);
  auto decoded = DecodeQueryResponse(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kg::rpc
