#include "rpc/client.h"

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

Result<Frame> RpcClient::ReadResponse(uint32_t request_id,
                                      MessageType expected_type) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.read_timeout_ms < 0
                                    ? 0
                                    : options_.read_timeout_ms);
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
      if (frame.type != expected_type || frame.request_id != request_id) {
        healthy_ = false;
        transport_->Close();
        return Status::Unavailable("protocol error: unexpected frame");
      }
      return frame;
    }
    if (step == FrameDecoder::Step::kError) {
      // Garbled stream: nothing after the bad frame can be trusted.
      healthy_ = false;
      transport_->Close();
      return Status::Unavailable("stream corrupted: " +
                                 decoder_.error().message());
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
          healthy_ = false;
          transport_->Close();
          return Status::Unavailable(
              "response timed out mid-frame; stream broken");
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
  }
}

Result<uint32_t> RpcClient::Handshake() {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (handshook_) return Status::FailedPrecondition("already handshook");
  const uint32_t id = next_request_id_++;
  HandshakeRequest req;
  req.max_schema_version = options_.max_schema_version;
  std::string frame;
  AppendFrame(&frame, MessageType::kHandshakeRequest, id,
              EncodeHandshakeRequest(req));
  auto write = transport_->Write(frame);
  if (!write.ok()) {
    healthy_ = false;
    return write;
  }
  KG_ASSIGN_OR_RETURN(Frame resp_frame,
                      ReadResponse(id, MessageType::kHandshakeResponse));
  auto resp = DecodeHandshakeResponse(resp_frame.body);
  if (!resp.ok()) {
    healthy_ = false;
    transport_->Close();
    return Status::Unavailable("bad handshake response: " +
                               resp.status().message());
  }
  if (resp->code != StatusCode::kOk) {
    healthy_ = false;
    return Status(resp->code, resp->message);
  }
  handshook_ = true;
  return resp->schema_version;
}

Result<serve::QueryResult> RpcClient::Execute(const serve::Query& query,
                                              const TraceContext* trace) {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (!handshook_) {
    return Status::FailedPrecondition("Execute before Handshake");
  }
  const uint32_t id = next_request_id_++;
  std::string frame;
  AppendFrame(&frame, MessageType::kQueryRequest, id, trace,
              EncodeQuery(query));
  auto write = transport_->Write(frame);
  if (!write.ok()) {
    healthy_ = false;
    return write;
  }
  KG_ASSIGN_OR_RETURN(Frame resp_frame,
                      ReadResponse(id, MessageType::kQueryResponse));
  auto resp = DecodeQueryResponse(resp_frame.body);
  if (!resp.ok()) {
    healthy_ = false;
    transport_->Close();
    return Status::Unavailable("bad query response: " +
                               resp.status().message());
  }
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return std::move(resp->rows);
}

Result<std::string> RpcClient::Introspect(IntrospectWhat what) {
  if (!healthy_) return Status::Unavailable("client stream is broken");
  if (!handshook_) {
    return Status::FailedPrecondition("Introspect before Handshake");
  }
  const uint32_t id = next_request_id_++;
  IntrospectRequest req;
  req.what = what;
  std::string frame;
  AppendFrame(&frame, MessageType::kIntrospectRequest, id,
              EncodeIntrospectRequest(req));
  auto write = transport_->Write(frame);
  if (!write.ok()) {
    healthy_ = false;
    return write;
  }
  KG_ASSIGN_OR_RETURN(Frame resp_frame,
                      ReadResponse(id, MessageType::kIntrospectResponse));
  auto resp = DecodeIntrospectResponse(resp_frame.body);
  if (!resp.ok()) {
    healthy_ = false;
    transport_->Close();
    return Status::Unavailable("bad introspect response: " +
                               resp.status().message());
  }
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return std::move(resp->payload);
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
