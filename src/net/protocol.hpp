// Payload encodings for the framed serving protocol (frame.hpp carries
// the byte-level frame format; this header defines what goes inside).
//
//   HELLO     u32 LE protocol version, then free-form software id text.
//             Client sends first; the server replies with its own HELLO.
//             A version the server does not speak is answered with ERR.
//   SUBMIT    the raw bytes of a job file (service/job_spec.hpp syntax).
//   RESULT    three length-prefixed sections, each u32 LE length + bytes:
//             summary CSV, runs CSV, report text — byte-identical to what
//             `distapx_cli batch --csv/--runs` and the spool daemon's
//             done/ files contain (the determinism contract across
//             transports).
//   ERR       UTF-8 diagnostic text (line-numbered JobError for a bad job
//             file, a frame_status_name-classified message for protocol
//             violations).
//   PING/PONG, STATSREQ and SHUTDOWN carry empty payloads; STATS carries
//   "key value\n" counter lines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace distapx::net {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// The "software id" text our side puts in HELLO.
std::string hello_software_id();

std::string encode_hello(std::uint32_t version = kProtocolVersion,
                         std::string_view software = {});
/// Returns false on a short payload; `software` gets the trailing text.
bool decode_hello(std::string_view payload, std::uint32_t& version,
                  std::string& software);

/// The three RESULT sections.
struct ResultPayload {
  std::string summary_csv;
  std::string runs_csv;
  std::string report_txt;

  friend bool operator==(const ResultPayload&, const ResultPayload&) = default;
};

/// Throws NetError when result_wire_size(r) exceeds the frame layer's
/// kMaxWirePayload — callers producing unbounded results (the server)
/// check first and degrade to ERR.
std::string encode_result(const ResultPayload& r);
/// Strict: all three sections present, lengths consistent, no trailing
/// bytes. Returns false on any violation.
bool decode_result(std::string_view payload, ResultPayload& out);

/// Encoded payload size of a RESULT (3 u32 section lengths + bytes).
std::uint64_t result_wire_size(const ResultPayload& r) noexcept;

}  // namespace distapx::net
