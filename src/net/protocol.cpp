#include "net/protocol.hpp"

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/result_cache.hpp"

namespace distapx::net {

namespace {

/// Consumes one u32-length-prefixed section from the front of `in`.
bool take_section(std::string_view& in, std::string& out) {
  if (in.size() < 4) return false;
  const std::uint32_t len = get_u32_le(in.data());
  in.remove_prefix(4);
  if (in.size() < len) return false;
  out.assign(in.substr(0, len));
  in.remove_prefix(len);
  return true;
}

}  // namespace

std::string hello_software_id() {
  return "distapx/engine-" + std::to_string(service::kEngineVersion);
}

std::string encode_hello(std::uint32_t version, std::string_view software) {
  std::string out;
  put_u32_le(out, version);
  out.append(software.empty() ? std::string_view(hello_software_id())
                              : software);
  return out;
}

bool decode_hello(std::string_view payload, std::uint32_t& version,
                  std::string& software) {
  if (payload.size() < 4) return false;
  version = get_u32_le(payload.data());
  software.assign(payload.substr(4));
  return true;
}

std::string encode_result(const ResultPayload& r) {
  // Per-section u32 lengths plus the frame's own u32 length field: a
  // result whose sections cannot all be represented must be refused
  // upstream (result_wire_size), never silently truncated here.
  if (result_wire_size(r) > kMaxWirePayload) {
    throw NetError("RESULT payload exceeds the u32 wire length field");
  }
  std::string out;
  out.reserve(12 + r.summary_csv.size() + r.runs_csv.size() +
              r.report_txt.size());
  put_u32_le(out, static_cast<std::uint32_t>(r.summary_csv.size()));
  out.append(r.summary_csv);
  put_u32_le(out, static_cast<std::uint32_t>(r.runs_csv.size()));
  out.append(r.runs_csv);
  put_u32_le(out, static_cast<std::uint32_t>(r.report_txt.size()));
  out.append(r.report_txt);
  return out;
}

std::uint64_t result_wire_size(const ResultPayload& r) noexcept {
  // Sizes are memory-resident string lengths, so the sum fits u64 with
  // room to spare.
  return 12 + static_cast<std::uint64_t>(r.summary_csv.size()) +
         r.runs_csv.size() + r.report_txt.size();
}

bool decode_result(std::string_view payload, ResultPayload& out) {
  std::string_view in = payload;
  if (!take_section(in, out.summary_csv)) return false;
  if (!take_section(in, out.runs_csv)) return false;
  if (!take_section(in, out.report_txt)) return false;
  return in.empty();
}

}  // namespace distapx::net
