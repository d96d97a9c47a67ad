#include "net/frame.hpp"

#include <cstring>

#include "net/socket.hpp"

namespace distapx::net {

void put_u32_le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32_le(const char* bytes) noexcept {
  const auto* b = reinterpret_cast<const unsigned char*>(bytes);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

bool is_known_frame_type(std::uint8_t type) noexcept {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kShutdown);
}

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxWirePayload) {
    throw NetError("frame payload of " + std::to_string(payload.size()) +
                   " bytes exceeds the u32 wire length field");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(reinterpret_cast<const char*>(kFrameMagic.data()),
             kFrameMagic.size());
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  out.push_back('\0');
  out.push_back('\0');
  put_u32_le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

const char* frame_status_name(FrameStatus s) noexcept {
  switch (s) {
    case FrameStatus::kFrame:
      return "frame";
    case FrameStatus::kNeedMore:
      return "need-more";
    case FrameStatus::kBadMagic:
      return "bad-magic";
    case FrameStatus::kBadVersion:
      return "bad-version";
    case FrameStatus::kBadType:
      return "bad-type";
    case FrameStatus::kBadReserved:
      return "bad-reserved";
    case FrameStatus::kOversized:
      return "oversized";
  }
  return "unknown";
}

FrameStatus FrameReader::next(Frame& out) {
  if (failed_ != FrameStatus::kNeedMore) return failed_;
  // Malformed headers are detected from whatever prefix has arrived, so a
  // peer that sends 4 garbage bytes and stalls is classified immediately
  // instead of being granted the full header timeout.
  const std::size_t check =
      buf_.size() < kFrameMagic.size() ? buf_.size() : kFrameMagic.size();
  if (std::memcmp(buf_.data(), kFrameMagic.data(), check) != 0) {
    return failed_ = FrameStatus::kBadMagic;
  }
  if (buf_.size() >= 5 &&
      static_cast<std::uint8_t>(buf_[4]) != kWireVersion) {
    return failed_ = FrameStatus::kBadVersion;
  }
  if (buf_.size() >= 6 &&
      !is_known_frame_type(static_cast<std::uint8_t>(buf_[5]))) {
    return failed_ = FrameStatus::kBadType;
  }
  if (buf_.size() >= 8 && (buf_[6] != '\0' || buf_[7] != '\0')) {
    return failed_ = FrameStatus::kBadReserved;
  }
  if (buf_.size() < kFrameHeaderSize) return FrameStatus::kNeedMore;
  const std::uint32_t len = get_u32_le(buf_.data() + 8);
  if (len > max_payload_) return failed_ = FrameStatus::kOversized;
  if (buf_.size() < kFrameHeaderSize + len) return FrameStatus::kNeedMore;
  out.type = static_cast<FrameType>(static_cast<std::uint8_t>(buf_[5]));
  out.payload.assign(buf_, kFrameHeaderSize, len);
  buf_.erase(0, kFrameHeaderSize + len);
  return FrameStatus::kFrame;
}

}  // namespace distapx::net
