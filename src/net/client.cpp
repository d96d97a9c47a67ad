#include "net/client.hpp"

#include <errno.h>

#include <cstring>

namespace distapx::net {

Client Client::handshake(fdio::Fd fd) {
  Client client(std::move(fd));
  client.send(FrameType::kHello, encode_hello());
  const Frame reply = client.receive();
  if (reply.type == FrameType::kError) {
    throw NetError("server rejected hello: " + reply.payload);
  }
  if (reply.type != FrameType::kHello) {
    throw NetError("expected HELLO reply, got frame type " +
                   std::to_string(static_cast<int>(reply.type)));
  }
  std::uint32_t version = 0;
  if (!decode_hello(reply.payload, version, client.server_software_)) {
    throw NetError("malformed HELLO payload from server");
  }
  if (version != kProtocolVersion) {
    throw NetError("server speaks protocol version " +
                   std::to_string(version) + ", this client speaks " +
                   std::to_string(kProtocolVersion));
  }
  return client;
}

Client Client::connect(const Endpoint& ep) {
  return handshake(connect_endpoint(ep));
}

Client Client::connect_retry(const Endpoint& ep, std::uint32_t timeout_ms) {
  return handshake(connect_endpoint_retry(ep, timeout_ms));
}

SubmitOutcome Client::submit(std::string_view job_file_text) {
  send_submit(job_file_text);
  return recv_submit();
}

void Client::send_submit(std::string_view job_file_text) {
  send(FrameType::kSubmit, job_file_text);
}

SubmitOutcome Client::recv_submit() {
  const Frame reply = receive();
  SubmitOutcome outcome;
  if (reply.type == FrameType::kError) {
    outcome.error = reply.payload;
    return outcome;
  }
  if (reply.type != FrameType::kResult) {
    throw NetError("expected RESULT or ERR, got frame type " +
                   std::to_string(static_cast<int>(reply.type)));
  }
  if (!decode_result(reply.payload, outcome.result)) {
    throw NetError("malformed RESULT payload from server");
  }
  outcome.ok = true;
  return outcome;
}

void Client::ping() {
  send(FrameType::kPing, {});
  const Frame reply = receive();
  if (reply.type != FrameType::kPong) {
    throw NetError("expected PONG, got frame type " +
                   std::to_string(static_cast<int>(reply.type)));
  }
}

std::string Client::stats() {
  send(FrameType::kStatsReq, {});
  const Frame reply = receive();
  if (reply.type != FrameType::kStats) {
    throw NetError("expected STATS, got frame type " +
                   std::to_string(static_cast<int>(reply.type)));
  }
  return reply.payload;
}

SubmitOutcome Client::shutdown() {
  send(FrameType::kShutdown, {});
  const Frame reply = receive();
  SubmitOutcome outcome;
  if (reply.type == FrameType::kError) {
    outcome.error = reply.payload;
    return outcome;
  }
  if (reply.type != FrameType::kShutdown) {
    throw NetError("expected SHUTDOWN ack, got frame type " +
                   std::to_string(static_cast<int>(reply.type)));
  }
  outcome.ok = true;
  return outcome;
}

void Client::send(FrameType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  if (!fdio::write_fully(fd_.get(), frame.data(), frame.size())) {
    throw NetError(std::string("send failed: ") + std::strerror(errno));
  }
}

Frame Client::receive() {
  Frame frame;
  for (;;) {
    switch (reader_.next(frame)) {
      case FrameStatus::kFrame:
        return frame;
      case FrameStatus::kNeedMore:
        break;
      default:
        throw NetError("undecodable frame from server (" +
                       std::string(frame_status_name(reader_.next(frame))) +
                       ")");
    }
    char buf[64 * 1024];
    const ssize_t r = fdio::read_some(fd_.get(), buf, sizeof buf);
    if (r == 0) {
      throw NetError(reader_.mid_frame()
                         ? "server closed the connection mid-frame"
                         : "server closed the connection");
    }
    if (r < 0) {
      throw NetError(std::string("recv failed: ") + std::strerror(errno));
    }
    reader_.feed(buf, static_cast<std::size_t>(r));
  }
}

}  // namespace distapx::net
