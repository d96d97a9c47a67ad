// Length-prefixed framing for the socket serving tier.
//
// Every message on the wire is one frame:
//
//   offset  size  field
//   0       4     magic "DAPX" (0x44 0x41 0x50 0x58)
//   4       1     wire version (kWireVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be zero
//   8       4     payload length, unsigned little-endian
//   12      len   payload bytes
//
// The 12-byte header is fixed; the payload meaning is per-type
// (protocol.hpp). FrameReader is the incremental decoder the server runs
// per connection: bytes are fed as they arrive and next() either produces
// a complete frame, asks for more bytes, or classifies exactly what is
// wrong (bad magic, unsupported version, unknown type, reserved bits set,
// oversized declared length). Classification is the contract the
// negative-path tests pin down: a malicious or broken peer yields a
// specific diagnosis, never a hang or a misparse.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace distapx::net {

inline constexpr std::array<unsigned char, 4> kFrameMagic{'D', 'A', 'P', 'X'};
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 12;

/// Message kinds (protocol.hpp documents the payloads).
enum class FrameType : std::uint8_t {
  kHello = 1,     ///< capability exchange; both directions
  kSubmit = 2,    ///< client -> server: a whole job file
  kResult = 3,    ///< server -> client: summary + runs CSV + report
  kError = 4,     ///< server -> client: classified failure text
  kPing = 5,      ///< client -> server: liveness probe
  kPong = 6,      ///< server -> client: probe reply
  kStatsReq = 7,  ///< client -> server: counter snapshot request
  kStats = 8,     ///< server -> client: key-value counter lines
  kShutdown = 9,  ///< client -> server: drain and stop; echoed as the ack
  // 10 and 11 (the removed trace echo) are retired, never to be reused:
  // an older peer may still send them and must get kBadType.
};

bool is_known_frame_type(std::uint8_t type) noexcept;

/// The wire's u32 little-endian integer encoding, shared by the frame
/// header and the payload codecs (protocol.cpp) so there is exactly one
/// byte-order implementation.
void put_u32_le(std::string& out, std::uint32_t v);
std::uint32_t get_u32_le(const char* bytes) noexcept;

/// Hard ceiling any single frame's payload can declare: the length field
/// is u32. encode_frame throws NetError above it (a silent wrap would
/// desynchronize the peer); producers of unbounded payloads (the
/// server's RESULT path) must check and degrade to ERR before encoding.
inline constexpr std::size_t kMaxWirePayload = 0xffffffffu;

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

/// Header + payload, ready to write to the wire. Throws NetError when
/// the payload cannot be represented (> kMaxWirePayload).
std::string encode_frame(FrameType type, std::string_view payload);

/// Outcome of one FrameReader::next() call.
enum class FrameStatus {
  kFrame,        ///< `out` holds a complete frame
  kNeedMore,     ///< nothing wrong, the frame is not complete yet
  kBadMagic,     ///< first 4 bytes are not "DAPX" — not our protocol
  kBadVersion,   ///< wire version this decoder does not speak
  kBadType,      ///< unknown FrameType byte
  kBadReserved,  ///< reserved header bytes not zero
  kOversized,    ///< declared payload length above the decoder's cap
};

/// Stable lowercase name ("bad-magic", "oversized", ...) for diagnostics.
const char* frame_status_name(FrameStatus s) noexcept;

/// Incremental frame decoder over a byte stream. Errors are sticky: after
/// a non-kNeedMore failure the stream is unsynchronized and next() keeps
/// returning the same status — the owner must drop the connection.
class FrameReader {
 public:
  /// `max_payload` caps the *declared* length, so an attacker announcing
  /// a 4 GiB frame is rejected from the 12-byte header alone, before any
  /// buffering.
  explicit FrameReader(std::size_t max_payload) : max_payload_(max_payload) {}

  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void feed(std::string_view bytes) { buf_.append(bytes); }

  FrameStatus next(Frame& out);

  /// Bytes buffered but not yet consumed as a frame.
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }
  /// True when a frame has started arriving but is incomplete — the state
  /// in which a peer disconnect or stall is a protocol error (truncated
  /// frame / slow-loris) rather than a clean goodbye.
  [[nodiscard]] bool mid_frame() const noexcept { return !buf_.empty(); }

 private:
  std::size_t max_payload_;
  std::string buf_;
  FrameStatus failed_ = FrameStatus::kNeedMore;  ///< sticky error, if any
};

}  // namespace distapx::net
