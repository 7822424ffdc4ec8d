#include "rpc/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

namespace kg::rpc {

TransportFactory ChaosConnectFactory(TransportFactory inner,
                                     const FaultInjector* injector,
                                     std::string channel) {
  auto attempts = std::make_shared<std::atomic<size_t>>(0);
  return [inner = std::move(inner), injector,
          channel = channel + "/connect",
          attempts]() -> Result<std::unique_ptr<ITransport>> {
    const size_t attempt =
        attempts->fetch_add(1, std::memory_order_relaxed);
    const FaultInjector::Attempt probe = injector->Probe(channel, attempt);
    if (probe.kind == FaultKind::kTransient ||
        probe.kind == FaultKind::kTerminal) {
      return Status::Unavailable("injected: connection refused");
    }
    return inner();
  };
}

RpcClient::RpcClient(std::unique_ptr<ITransport> transport,
                     RpcClientOptions options)
    : transport_(std::move(transport)), options_(options) {}

Status RpcClient::Break(std::string why) {
  healthy_ = false;
  transport_->Close();
  return Status::Unavailable(std::move(why));
}

Result<uint32_t> RpcClient::Send(MessageType type, const TraceContext* trace,
                                 std::string_view body) {
  const uint32_t id = next_request_id_++;
  std::string frame;
  AppendFrame(&frame, type, id, trace, body);
  const Status write = transport_->Write(frame);
  if (!write.ok()) {
    healthy_ = false;
    return write;
  }
  return id;
}

Result<Frame> RpcClient::ReadResponse(uint32_t request_id) {
  const auto timeout =
      std::chrono::milliseconds(std::max(options_.read_timeout_ms, 0));
  auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string chunk;
  for (;;) {
    Frame frame;
    FrameDecoder::Step step;
    while ((step = decoder_.Next(&frame)) == FrameDecoder::Step::kFrame) {
      if (frame.request_id < request_id) {
        // A response to a request we abandoned after its own response
        // was lost on the wire; the answer is no longer wanted. (Any
        // type: an abandoned Execute's response may limp in while a
        // later Introspect waits, and vice versa.)
        continue;
      }
      if (request_id != kAnyRequest && frame.request_id != request_id) {
        return Break("protocol error: unexpected frame");
      }
      return frame;
    }
    if (step == FrameDecoder::Step::kError) {
      // Garbled stream: nothing after the bad frame can be trusted.
      return Break("stream corrupted: " + decoder_.error().message());
    }
    int timeout_ms = -1;
    if (options_.read_timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        if (decoder_.buffered_bytes() > 0) {
          // The deadline landed mid-frame: a partial header or body is
          // sitting in the decoder. Carrying on would splice the next
          // response's bytes onto this fragment and "resynchronize" on
          // garbage — the stream is broken, not merely slow.
          return Break("response timed out mid-frame; stream broken");
        }
        // The response never arrived (lost frame, stalled server). The
        // stream stays usable: if the answer limps in later it carries
        // an older request id and the skip above discards it.
        return Status::Unavailable("response timed out");
      }
      timeout_ms = static_cast<int>(left.count());
    }
    chunk.clear();
    auto read = transport_->Read(&chunk, 64 * 1024, timeout_ms);
    if (!read.ok()) {
      healthy_ = false;
      return read.status();
    }
    if (*read == 0 && options_.read_timeout_ms >= 0) continue;  // Re-check.
    decoder_.Feed(chunk);
    // A pushed frame is timed by the silence before each byte, not by how
    // long it takes to arrive: a commit ships whole, so a large batch on a
    // slow link is still alive while it streams in.
    if (request_id == kAnyRequest) {
      deadline = std::chrono::steady_clock::now() + timeout;
    }
  }
}

template <typename Message>
Result<Message> RpcClient::Decode(const Frame& frame,
                                  Result<Message> (*decode)(std::string_view)) {
  Result<Message> message = decode(frame.body);
  if (!message.ok()) {
    return Break(std::string("bad ") + MessageTypeName(frame.type) + ": " +
                 message.status().message());
  }
  return message;
}

template <typename Response>
Result<Response> RpcClient::Call(MessageType type, const TraceContext* trace,
                                 std::string_view body,
                                 MessageType response_type,
                                 Result<Response> (*decode)(std::string_view)) {
  KG_ASSIGN_OR_RETURN(const uint32_t id, Send(type, trace, body));
  KG_ASSIGN_OR_RETURN(Frame frame, ReadResponse(id));
  if (frame.type != response_type) {
    return Break("protocol error: unexpected frame");
  }
  return Decode(frame, decode);
}

Result<uint32_t> RpcClient::Handshake() {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (handshook_) return Status::FailedPrecondition("already handshook");
  HandshakeRequest req;
  req.max_schema_version = options_.max_schema_version;
  KG_ASSIGN_OR_RETURN(
      HandshakeResponse resp,
      Call(MessageType::kHandshakeRequest, nullptr,
           EncodeHandshakeRequest(req), MessageType::kHandshakeResponse,
           &DecodeHandshakeResponse));
  if (resp.code != StatusCode::kOk) {
    healthy_ = false;
    return Status(resp.code, resp.message);
  }
  handshook_ = true;
  return resp.schema_version;
}

Result<serve::QueryResult> RpcClient::Execute(const serve::Query& query,
                                              const TraceContext* trace) {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (!handshook_) {
    return Status::FailedPrecondition("Execute before Handshake");
  }
  KG_ASSIGN_OR_RETURN(
      QueryResponse resp,
      Call(MessageType::kQueryRequest, trace, EncodeQuery(query),
           MessageType::kQueryResponse, &DecodeQueryResponse));
  if (resp.code != StatusCode::kOk) return Status(resp.code, resp.message);
  return std::move(resp.rows);
}

Result<std::string> RpcClient::Introspect(IntrospectWhat what) {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (!handshook_) {
    return Status::FailedPrecondition("Introspect before Handshake");
  }
  IntrospectRequest req;
  req.what = what;
  KG_ASSIGN_OR_RETURN(
      IntrospectResponse resp,
      Call(MessageType::kIntrospectRequest, nullptr,
           EncodeIntrospectRequest(req), MessageType::kIntrospectResponse,
           &DecodeIntrospectResponse));
  if (resp.code != StatusCode::kOk) return Status(resp.code, resp.message);
  return std::move(resp.payload);
}

Status RpcClient::Subscribe(uint64_t from_offset, const TraceContext* trace) {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (!handshook_) {
    return Status::FailedPrecondition("Subscribe before Handshake");
  }
  WalSubscribe req;
  req.from_offset = from_offset;
  KG_RETURN_IF_ERROR(
      Send(MessageType::kWalSubscribe, trace, EncodeWalSubscribe(req))
          .status());
  subscribed_ = true;
  return Status::OK();
}

Result<WalPush> RpcClient::ReadWalPush() {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (!subscribed_) {
    return Status::FailedPrecondition("ReadWalPush before Subscribe");
  }
  // A subscribed connection carries nothing but the pushed stream.
  KG_ASSIGN_OR_RETURN(Frame frame, ReadResponse(kAnyRequest));
  WalPush push;
  push.type = frame.type;
  push.has_trace = frame.has_trace;
  push.trace = frame.trace;
  if (frame.type == MessageType::kWalHeartbeat) {
    KG_ASSIGN_OR_RETURN(push.heartbeat, Decode(frame, &DecodeWalHeartbeat));
    return push;
  }
  if (frame.type != MessageType::kWalBatch) {
    return Break("protocol error: unexpected frame");
  }
  KG_ASSIGN_OR_RETURN(push.batch, Decode(frame, &DecodeWalBatch));
  if (push.batch.code != StatusCode::kOk) {
    // The server refused the subscription (bad offset, no log behind
    // it) and closes the stream after saying so.
    healthy_ = false;
    return Status(push.batch.code, push.batch.message);
  }
  return push;
}

RetryingClient::RetryingClient(TransportFactory factory, RetryPolicy policy,
                               uint64_t jitter_seed, RpcClientOptions options)
    : factory_(std::move(factory)),
      policy_(policy),
      options_(options),
      rng_(jitter_seed),
      breaker_(policy.breaker_failure_threshold) {}

Result<serve::QueryResult> RetryingClient::Execute(
    const serve::Query& query, const TraceContext* trace) {
  Result<serve::QueryResult> result =
      Status::Unavailable("no attempt made");
  const RetryOutcome outcome = RetryWithBackoff(
      policy_, rng_.Split(stats_.attempts), &breaker_,
      [&](size_t) -> AttemptResult {
        ++stats_.attempts;
        if (client_ == nullptr || !client_->healthy() ||
            !client_->handshook()) {
          client_.reset();
          auto transport = factory_();
          if (!transport.ok()) {
            result = transport.status();
            return {transport.status(), 0.0};
          }
          ++stats_.reconnects;
          client_ = std::make_unique<RpcClient>(std::move(*transport),
                                                options_);
          auto handshake = client_->Handshake();
          if (!handshake.ok()) {
            result = handshake.status();
            return {handshake.status(), 0.0};
          }
        }
        result = client_->Execute(query, trace);
        return {result.status(), 0.0};
      });
  stats_.virtual_ms += outcome.virtual_ms;
  if (!outcome.status.ok() && result.ok()) {
    // The breaker or deadline budget cut in before any attempt ran.
    return outcome.status;
  }
  return result;
}

}  // namespace kg::rpc
