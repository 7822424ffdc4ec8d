// Hostile-bytes battery for the RPC decoder: truncation at every byte
// offset, a bit flip at every position, seeded random garbage, and
// random mutations of valid frames. The decoder and every body decoder
// must return clean errors (or clean shorter results) on all of it —
// never crash, never hang, never read out of bounds. ASan/UBSan runs of
// this binary are the real teeth.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rpc/frame.h"

namespace kg::rpc {
namespace {

std::string SampleStream() {
  std::string stream;
  HandshakeRequest hs;
  hs.max_schema_version = 1;
  AppendFrame(&stream, MessageType::kHandshakeRequest, 1,
              EncodeHandshakeRequest(hs));
  HandshakeResponse hsr;
  hsr.schema_version = 1;
  hsr.message = "ok";
  AppendFrame(&stream, MessageType::kHandshakeResponse, 1,
              EncodeHandshakeResponse(hsr));
  AppendFrame(&stream, MessageType::kQueryRequest, 2,
              EncodeQuery(serve::Query::AttributeByType("Person", "name")));
  QueryResponse qr;
  qr.rows = {"E:alice\tE:x", "E:bob\tE:y"};
  AppendFrame(&stream, MessageType::kQueryResponse, 2,
              EncodeQueryResponse(qr));
  return stream;
}

size_t DrainFrames(FrameDecoder* decoder) {
  Frame out;
  size_t n = 0;
  while (decoder->Next(&out) == FrameDecoder::Step::kFrame) ++n;
  return n;
}

// Truncating the stream at any offset must yield only the frames that
// fit entirely before the cut — never an error (a partial tail frame is
// "need more", not corruption), never a crash.
TEST(RpcFrameFuzzTest, SurvivesTruncationAtEveryOffset) {
  const std::string stream = SampleStream();
  // Frame boundaries, to predict how many complete frames survive a cut.
  std::vector<size_t> ends;
  {
    FrameDecoder decoder;
    decoder.Feed(stream);
    Frame out;
    size_t consumed = 0;
    while (decoder.Next(&out) == FrameDecoder::Step::kFrame) {
      consumed += kRecordHeaderBytes + kMessageHeaderBytes + out.body.size();
      ends.push_back(consumed);
    }
    ASSERT_EQ(ends.size(), 4u);
    ASSERT_EQ(consumed, stream.size());
  }
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(std::string_view(stream).substr(0, cut));
    size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    EXPECT_EQ(DrainFrames(&decoder), expected) << "cut at " << cut;
    EXPECT_TRUE(decoder.error().ok()) << "cut at " << cut;
  }
}

// Flipping any single bit anywhere in the stream must never produce a
// frame that differs from the original stream's frames: either the
// decoder errors (checksum/header checks) or — when the flip lands in a
// length field making a frame appear shorter/longer — it stalls or
// errors, but it never silently delivers altered bytes as a valid frame.
TEST(RpcFrameFuzzTest, BitFlipsNeverYieldAlteredFrames) {
  const std::string stream = SampleStream();
  std::vector<Frame> originals;
  {
    FrameDecoder decoder;
    decoder.Feed(stream);
    Frame out;
    while (decoder.Next(&out) == FrameDecoder::Step::kFrame) {
      originals.push_back(out);
    }
  }
  auto matches_original = [&](const Frame& f) {
    for (const Frame& o : originals) {
      if (o.type == f.type && o.request_id == f.request_id &&
          o.body == f.body) {
        return true;
      }
    }
    return false;
  };
  size_t flips_caught = 0;
  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = stream;
      mutated[byte] ^= static_cast<char>(1 << bit);
      FrameDecoder decoder;
      decoder.Feed(mutated);
      Frame out;
      FrameDecoder::Step step;
      bool saw_error = false;
      while ((step = decoder.Next(&out)) == FrameDecoder::Step::kFrame) {
        ASSERT_TRUE(matches_original(out))
            << "byte " << byte << " bit " << bit
            << " delivered an altered frame";
      }
      saw_error = (step == FrameDecoder::Step::kError);
      if (saw_error) ++flips_caught;
    }
  }
  // The overwhelming majority of flips must be *detected* (checksum,
  // version, type, flags, length guards); the rest may only manifest as
  // a stalled partial frame. Zero may be silently accepted — that is
  // asserted above; this asserts the detection machinery actually runs.
  EXPECT_GT(flips_caught, stream.size() * 8 / 2);
}

std::string TracedSampleStream() {
  std::string stream;
  TraceContext trace;
  trace.trace_id = 0xfeedfacefeedfaceULL;
  trace.parent_span_id = 0x1020304050607080ULL;
  trace.sampled = true;
  AppendFrame(&stream, MessageType::kQueryRequest, 11, &trace,
              EncodeQuery(serve::Query::PointLookup("alice", "knows")));
  trace.sampled = false;
  AppendFrame(&stream, MessageType::kQueryRequest, 12, &trace,
              EncodeQuery(serve::Query::Neighborhood("bob")));
  AppendFrame(&stream, MessageType::kIntrospectRequest, 13,
              EncodeIntrospectRequest(
                  IntrospectRequest{IntrospectWhat::kMetricsJson}));
  IntrospectResponse ir;
  ir.payload = "{\"schema_version\":1}";
  AppendFrame(&stream, MessageType::kIntrospectResponse, 13,
              EncodeIntrospectResponse(ir));
  return stream;
}

// A stream carrying trace extensions and introspection frames, cut at
// every byte offset: only whole frames before the cut are delivered,
// and a partial trace extension is "need more", never an error.
TEST(RpcFrameFuzzTest, TracedStreamSurvivesTruncationAtEveryOffset) {
  const std::string stream = TracedSampleStream();
  std::vector<size_t> ends;
  {
    FrameDecoder decoder;
    decoder.Feed(stream);
    Frame out;
    size_t consumed = 0;
    while (decoder.Next(&out) == FrameDecoder::Step::kFrame) {
      consumed += kRecordHeaderBytes + kMessageHeaderBytes + out.body.size();
      if (out.has_trace) consumed += 1 + kTraceContextBytes;
      ends.push_back(consumed);
    }
    ASSERT_EQ(ends.size(), 4u);
    ASSERT_EQ(consumed, stream.size());
  }
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(std::string_view(stream).substr(0, cut));
    size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    EXPECT_EQ(DrainFrames(&decoder), expected) << "cut at " << cut;
    EXPECT_TRUE(decoder.error().ok()) << "cut at " << cut;
  }
}

// Bit flips over a traced stream: a flip may never deliver a frame whose
// (type, request id, trace, body) differs from an original frame.
TEST(RpcFrameFuzzTest, TracedStreamBitFlipsNeverYieldAlteredFrames) {
  const std::string stream = TracedSampleStream();
  std::vector<Frame> originals;
  {
    FrameDecoder decoder;
    decoder.Feed(stream);
    Frame out;
    while (decoder.Next(&out) == FrameDecoder::Step::kFrame) {
      originals.push_back(out);
    }
  }
  auto matches_original = [&](const Frame& f) {
    for (const Frame& o : originals) {
      if (o.type == f.type && o.request_id == f.request_id &&
          o.has_trace == f.has_trace &&
          o.trace.trace_id == f.trace.trace_id &&
          o.trace.parent_span_id == f.trace.parent_span_id &&
          o.trace.sampled == f.trace.sampled && o.body == f.body) {
        return true;
      }
    }
    return false;
  };
  size_t flips_caught = 0;
  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = stream;
      mutated[byte] ^= static_cast<char>(1 << bit);
      FrameDecoder decoder;
      decoder.Feed(mutated);
      Frame out;
      FrameDecoder::Step step;
      while ((step = decoder.Next(&out)) == FrameDecoder::Step::kFrame) {
        ASSERT_TRUE(matches_original(out))
            << "byte " << byte << " bit " << bit
            << " delivered an altered frame";
      }
      if (step == FrameDecoder::Step::kError) ++flips_caught;
    }
  }
  EXPECT_GT(flips_caught, stream.size() * 8 / 2);
}

// Every possible 16-bit flags value, checksum fixed up so only the flag
// validation can fire: zero decodes, the trace bit alone takes the
// extension path (and errors here, because the query body is not a
// valid extension), and any reserved bit is rejected by name.
TEST(RpcFrameFuzzTest, ExhaustiveFlagValuesNeverCrash) {
  std::string base;
  AppendFrame(&base, MessageType::kQueryRequest, 21,
              EncodeQuery(serve::Query::PointLookup("node", "pred")));
  for (uint32_t flags = 0; flags <= 0xffff; ++flags) {
    std::string frame = base;
    frame[kRecordHeaderBytes + 2] = static_cast<char>(flags & 0xff);
    frame[kRecordHeaderBytes + 3] = static_cast<char>((flags >> 8) & 0xff);
    const std::string_view payload(frame.data() + kRecordHeaderBytes,
                                   frame.size() - kRecordHeaderBytes);
    const uint32_t checksum = Checksum32(payload);
    for (int i = 0; i < 4; ++i) {
      frame[4 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
    }
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    const FrameDecoder::Step step = decoder.Next(&out);
    if (flags == 0) {
      EXPECT_EQ(step, FrameDecoder::Step::kFrame);
      EXPECT_FALSE(out.has_trace);
    } else if (flags == kFlagTraceContext) {
      // The body's first byte (point-lookup kind, 0x00) is read as the
      // extension length and rejected.
      EXPECT_EQ(step, FrameDecoder::Step::kError);
    } else {
      EXPECT_EQ(step, FrameDecoder::Step::kError) << "flags " << flags;
      EXPECT_NE(decoder.error().message().find("reserved flags"),
                std::string::npos)
          << "flags " << flags;
    }
  }
}

// Truncating a trace extension at every interior offset (length prefix
// and checksum fixed up each time) must always produce a clean error —
// the extension has a fixed width, so no strict prefix parses.
TEST(RpcFrameFuzzTest, TraceExtensionTruncationAlwaysRejected) {
  TraceContext trace;
  trace.trace_id = 0xaabbccddeeff0011ULL;
  trace.parent_span_id = 0x2233445566778899ULL;
  trace.sampled = true;
  std::string traced;
  AppendFrame(&traced, MessageType::kHandshakeRequest, 2, &trace,
              std::string_view());
  const size_t full_payload = traced.size() - kRecordHeaderBytes;
  ASSERT_EQ(full_payload, kMessageHeaderBytes + 1 + kTraceContextBytes);
  for (size_t payload = kMessageHeaderBytes; payload < full_payload;
       ++payload) {
    std::string frame = traced.substr(0, kRecordHeaderBytes + payload);
    for (int i = 0; i < 4; ++i) {
      frame[i] = static_cast<char>((payload >> (8 * i)) & 0xff);
    }
    const std::string_view view(frame.data() + kRecordHeaderBytes, payload);
    const uint32_t checksum = Checksum32(view);
    for (int i = 0; i < 4; ++i) {
      frame[4 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
    }
    FrameDecoder decoder;
    decoder.Feed(frame);
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError)
        << "payload bytes " << payload;
  }
}

// Corrupting the checksum field specifically must always error: the
// payload is intact, so only the checksum comparison can catch it.
TEST(RpcFrameFuzzTest, EveryChecksumBitFlipIsCaught) {
  std::string frame;
  AppendFrame(&frame, MessageType::kQueryRequest, 9,
              EncodeQuery(serve::Query::TopKRelated("center", 5)));
  for (size_t byte = 4; byte < 8; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = frame;
      mutated[byte] ^= static_cast<char>(1 << bit);
      FrameDecoder decoder;
      decoder.Feed(mutated);
      Frame out;
      EXPECT_EQ(decoder.Next(&out), FrameDecoder::Step::kError)
          << "checksum byte " << byte << " bit " << bit;
    }
  }
}

// Pure random garbage: the decoder must terminate (error or need-more)
// without crashing, for many seeds and sizes.
TEST(RpcFrameFuzzTest, SurvivesRandomGarbage) {
  Rng rng(20260807);
  for (int round = 0; round < 200; ++round) {
    const size_t size = rng.UniformIndex(512);
    std::string garbage(size, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    FrameDecoder decoder;
    decoder.Feed(garbage);
    DrainFrames(&decoder);  // Must return; no assertion on outcome.
  }
}

// Random garbage fed to every body decoder: clean Result, never a crash.
TEST(RpcFrameFuzzTest, BodyDecodersSurviveRandomGarbage) {
  Rng rng(424242);
  for (int round = 0; round < 500; ++round) {
    const size_t size = rng.UniformIndex(128);
    std::string garbage(size, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    (void)DecodeHandshakeRequest(garbage);
    (void)DecodeHandshakeResponse(garbage);
    (void)DecodeQuery(garbage);
    (void)DecodeQueryResponse(garbage);
    (void)DecodeIntrospectRequest(garbage);
    (void)DecodeIntrospectResponse(garbage);
  }
}

// Truncating each message *body* at every offset: the decoder must
// return a clean error for every strict prefix (all four bodies end
// with a fixed-width or length-prefixed field, so no proper prefix is
// also a valid encoding).
TEST(RpcFrameFuzzTest, BodyDecodersRejectEveryTruncation) {
  const std::string bodies[] = {
      EncodeHandshakeRequest(HandshakeRequest{1}),
      EncodeHandshakeResponse(
          HandshakeResponse{StatusCode::kOk, "hello", 1}),
      EncodeQuery(serve::Query::PointLookup("node", "pred")),
      EncodeQueryResponse(QueryResponse{StatusCode::kOk, "", {"row1", "r2"}}),
  };
  for (size_t which = 0; which < 4; ++which) {
    const std::string& body = bodies[which];
    for (size_t cut = 0; cut < body.size(); ++cut) {
      const std::string_view prefix =
          std::string_view(body).substr(0, cut);
      bool ok = false;
      switch (which) {
        case 0: ok = DecodeHandshakeRequest(prefix).ok(); break;
        case 1: ok = DecodeHandshakeResponse(prefix).ok(); break;
        case 2: ok = DecodeQuery(prefix).ok(); break;
        case 3: ok = DecodeQueryResponse(prefix).ok(); break;
      }
      EXPECT_FALSE(ok) << "body " << which << " cut at " << cut;
    }
  }
}

// Random mutations (splice, duplicate, delete ranges) of a valid
// stream: decoder must always terminate and never deliver a frame that
// was not in the original.
TEST(RpcFrameFuzzTest, SurvivesRandomMutations) {
  const std::string stream = SampleStream();
  Rng rng(777);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = stream;
    const int op = static_cast<int>(rng.UniformInt(0, 2));
    const size_t at = rng.UniformIndex(mutated.size());
    const size_t span = 1 + rng.UniformIndex(16);
    switch (op) {
      case 0:  // Overwrite a span with random bytes.
        for (size_t i = at; i < std::min(mutated.size(), at + span); ++i) {
          mutated[i] = static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
      case 1:  // Delete a span.
        mutated.erase(at, span);
        break;
      case 2:  // Duplicate a span in place.
        mutated.insert(at, mutated.substr(at, span));
        break;
    }
    FrameDecoder decoder;
    decoder.Feed(mutated);
    Frame out;
    int frames = 0;
    while (decoder.Next(&out) == FrameDecoder::Step::kFrame) {
      if (++frames > 64) FAIL() << "decoder runaway on round " << round;
    }
  }
}

}  // namespace
}  // namespace kg::rpc
