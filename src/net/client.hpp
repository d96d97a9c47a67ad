// Blocking request/response client for the framed serving protocol.
//
// One Client is one connection: connect() dials the endpoint and performs
// the HELLO exchange, then submit()/ping()/stats()/shutdown() each write
// one request frame and block until the matching response frame arrives.
// The connection is reusable across requests (perfbench's closed-loop
// clients submit repeatedly over one connection each).
//
// Pipelining: send_submit()/recv_submit() split the round trip, so a
// client may keep several SUBMITs in flight on one connection; the
// server answers them in submit order (its per-connection FIFO
// contract), so the Nth recv_submit() matches the Nth send_submit().
// submit() is exactly send_submit() + recv_submit().
//
// Failures split into two kinds on purpose:
//   - transport/protocol trouble (dial failure, connection reset, a frame
//     that does not decode) throws NetError — the connection is dead;
//   - a server-side ERR frame is a *payload*, returned in
//     SubmitOutcome::error — the connection stays usable (a malformed job
//     file must not cost the client its session).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "support/fdio.hpp"

namespace distapx::net {

struct SubmitOutcome {
  bool ok = false;
  ResultPayload result;  ///< filled when ok
  std::string error;     ///< the server's ERR text when !ok
};

class Client {
 public:
  /// Dials and exchanges HELLOs. Throws NetError on dial failure, a
  /// non-HELLO reply, or a protocol-version mismatch.
  static Client connect(const Endpoint& ep);

  /// connect(), but transient dial failures — the server has not bound
  /// yet (ENOENT on a Unix path, ECONNREFUSED on TCP) or the listen
  /// backlog hiccuped (ECONNRESET, ETIMEDOUT) — are retried with
  /// exponential backoff until ~timeout_ms has elapsed, then the last
  /// error is thrown. Removes the "sleep until the socket file appears"
  /// startup race from scripts; timeout_ms = 0 behaves like connect().
  static Client connect_retry(const Endpoint& ep, std::uint32_t timeout_ms);

  /// Submits one job file (its raw bytes). RESULT and ERR are the two
  /// expected replies; anything else throws NetError.
  SubmitOutcome submit(std::string_view job_file_text);

  /// Pipelining half 1: writes one SUBMIT frame without waiting.
  void send_submit(std::string_view job_file_text);

  /// Pipelining half 2: blocks for the oldest unanswered SUBMIT's
  /// RESULT/ERR. Call exactly once per send_submit(), in any interleaving
  /// that never reads ahead of what was sent.
  SubmitOutcome recv_submit();

  /// PING -> kPong round trip; throws NetError on anything else.
  void ping();

  /// STATSREQ -> the server's "key value\n" counter lines.
  std::string stats();

  /// Asks the server to drain and stop; returns after the ack. The server
  /// may refuse (ERR) when shutdown-over-the-wire is disabled — that
  /// refusal is returned, not thrown.
  SubmitOutcome shutdown();

  /// The server's HELLO software id (after connect()).
  [[nodiscard]] const std::string& server_software() const noexcept {
    return server_software_;
  }

 private:
  explicit Client(fdio::Fd fd) : fd_(std::move(fd)), reader_(kMaxResponse) {}

  /// HELLO exchange over a freshly dialed fd (shared by both connects).
  static Client handshake(fdio::Fd fd);

  /// Writes one frame; throws NetError on a short write.
  void send(FrameType type, std::string_view payload);
  /// Blocks until one complete frame arrives; throws NetError on EOF,
  /// read errors, or an undecodable byte stream.
  Frame receive();

  /// Responses are bounded by the job file that produced them (runs CSV:
  /// one line per seed); 256 MiB is far above any real reply and merely
  /// stops a rogue server from ballooning client memory.
  static constexpr std::size_t kMaxResponse = 256u << 20;

  fdio::Fd fd_;
  FrameReader reader_;
  std::string server_software_;
};

}  // namespace distapx::net
