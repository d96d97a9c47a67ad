// The wire layer of the socket serving tier (net/frame.hpp,
// net/protocol.hpp, net/socket.hpp endpoint parsing).
//
// Contract under test: encode_frame/FrameReader round-trip every frame
// type through arbitrary stream fragmentation, and every malformed input
// — garbage magic, wrong version, unknown type, reserved bits, oversized
// declared length, truncation at any byte — is *classified*, sticky, and
// detected from the shortest prefix that proves it. The payload codecs
// (HELLO, RESULT) must reject short/inconsistent sections rather than
// misparse them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace distapx {
namespace {

using net::Frame;
using net::FrameReader;
using net::FrameStatus;
using net::FrameType;

std::string wire(FrameType type, const std::string& payload) {
  return net::encode_frame(type, payload);
}

TEST(FrameCodec, HeaderLayoutIsExactlyAsDocumented) {
  const std::string bytes = wire(FrameType::kSubmit, "abc");
  ASSERT_EQ(bytes.size(), net::kFrameHeaderSize + 3);
  EXPECT_EQ(bytes.substr(0, 4), "DAPX");
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), net::kWireVersion);
  EXPECT_EQ(static_cast<unsigned char>(bytes[5]),
            static_cast<unsigned char>(FrameType::kSubmit));
  EXPECT_EQ(bytes[6], '\0');
  EXPECT_EQ(bytes[7], '\0');
  // Payload length, unsigned little-endian.
  EXPECT_EQ(bytes[8], 3);
  EXPECT_EQ(bytes[9], 0);
  EXPECT_EQ(bytes[10], 0);
  EXPECT_EQ(bytes[11], 0);
  EXPECT_EQ(bytes.substr(12), "abc");
}

TEST(FrameCodec, RoundTripsEveryType) {
  const std::vector<FrameType> types = {
      FrameType::kHello,    FrameType::kSubmit, FrameType::kResult,
      FrameType::kError,    FrameType::kPing,   FrameType::kPong,
      FrameType::kStatsReq, FrameType::kStats,  FrameType::kShutdown};
  FrameReader reader(1 << 20);
  for (const FrameType t : types) {
    reader.feed(wire(t, "payload-of-" + std::to_string(static_cast<int>(t))));
  }
  for (const FrameType t : types) {
    Frame f;
    ASSERT_EQ(reader.next(f), FrameStatus::kFrame);
    EXPECT_EQ(f.type, t);
    EXPECT_EQ(f.payload, "payload-of-" + std::to_string(static_cast<int>(t)));
  }
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodec, ByteAtATimeFeedingProducesTheSameFrames) {
  const std::string bytes =
      wire(FrameType::kSubmit, "gen=path:10 algo=luby\n") +
      wire(FrameType::kPing, "");
  FrameReader reader(1 << 20);
  std::vector<Frame> frames;
  for (const char c : bytes) {
    reader.feed(&c, 1);
    Frame f;
    while (reader.next(f) == FrameStatus::kFrame) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kSubmit);
  EXPECT_EQ(frames[0].payload, "gen=path:10 algo=luby\n");
  EXPECT_EQ(frames[1].type, FrameType::kPing);
  EXPECT_TRUE(frames[1].payload.empty());
}

TEST(FrameCodec, EmptyPayloadFrame) {
  FrameReader reader(0);  // even a zero cap admits empty payloads
  reader.feed(wire(FrameType::kPong, ""));
  Frame f;
  ASSERT_EQ(reader.next(f), FrameStatus::kFrame);
  EXPECT_EQ(f.type, FrameType::kPong);
}

// ---- negative paths: each malformation has exactly one classification ----

TEST(FrameCodec, GarbageMagicIsRejectedFromTheFirstDivergentByte) {
  FrameReader reader(1 << 20);
  reader.feed("GET ", 4);  // an HTTP client knocking on the wrong door
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kBadMagic);
}

TEST(FrameCodec, ShortGarbagePrefixAlreadyClassifies) {
  // 2 bytes that cannot begin "DAPX": rejected without waiting for a
  // full header (the slow-loris clock should not even start).
  FrameReader reader(1 << 20);
  reader.feed("XX", 2);
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kBadMagic);
}

TEST(FrameCodec, WrongVersionByte) {
  std::string bytes = wire(FrameType::kPing, "");
  bytes[4] = 99;
  FrameReader reader(1 << 20);
  reader.feed(bytes);
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kBadVersion);
}

TEST(FrameCodec, UnknownTypeByte) {
  std::string bytes = wire(FrameType::kPing, "");
  bytes[5] = 0x7f;
  FrameReader reader(1 << 20);
  reader.feed(bytes);
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kBadType);
}

TEST(FrameCodec, RetiredTraceEchoTypeBytesAreUnknown) {
  // 10 and 11 carried a removed trace-echo SUBMIT/RESULT pair; they stay
  // retired, so a peer that still sends them is classified, not served.
  EXPECT_FALSE(net::is_known_frame_type(0));
  EXPECT_TRUE(net::is_known_frame_type(
      static_cast<std::uint8_t>(FrameType::kShutdown)));
  for (const int type : {10, 11}) {
    EXPECT_FALSE(net::is_known_frame_type(static_cast<std::uint8_t>(type)))
        << type;
    std::string bytes = wire(FrameType::kSubmit, "gen=path:10 algo=luby\n");
    bytes[5] = static_cast<char>(type);
    FrameReader reader(1 << 20);
    reader.feed(bytes);
    Frame f;
    EXPECT_EQ(reader.next(f), FrameStatus::kBadType) << type;
  }
}

TEST(FrameCodec, ReservedBitsMustBeZero) {
  std::string bytes = wire(FrameType::kPing, "");
  bytes[6] = 1;
  FrameReader reader(1 << 20);
  reader.feed(bytes);
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kBadReserved);
}

TEST(FrameCodec, OversizedDeclaredLengthIsRejectedFromTheHeaderAlone) {
  // Declares 0xffffffff bytes; the reader must reject on the 12-byte
  // header without waiting for (or buffering) any payload.
  std::string bytes = wire(FrameType::kSubmit, "").substr(0, 8);
  bytes += "\xff\xff\xff\xff";
  FrameReader reader(1 << 20);
  reader.feed(bytes);
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kOversized);
}

TEST(FrameCodec, OneByteOverTheCapIsOversizedAtTheCapIsNot) {
  const std::string payload(16, 'x');
  {
    FrameReader reader(16);
    reader.feed(wire(FrameType::kSubmit, payload));
    Frame f;
    EXPECT_EQ(reader.next(f), FrameStatus::kFrame);
  }
  {
    FrameReader reader(15);
    reader.feed(wire(FrameType::kSubmit, payload));
    Frame f;
    EXPECT_EQ(reader.next(f), FrameStatus::kOversized);
  }
}

TEST(FrameCodec, TruncatedFrameStaysNeedMoreAndReportsMidFrame) {
  const std::string bytes = wire(FrameType::kSubmit, "0123456789");
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    FrameReader reader(1 << 20);
    reader.feed(bytes.data(), cut);
    Frame f;
    ASSERT_EQ(reader.next(f), FrameStatus::kNeedMore) << "cut at " << cut;
    EXPECT_TRUE(reader.mid_frame()) << "cut at " << cut;
  }
}

TEST(FrameCodec, ErrorsAreSticky) {
  FrameReader reader(1 << 20);
  reader.feed("JUNK", 4);
  Frame f;
  EXPECT_EQ(reader.next(f), FrameStatus::kBadMagic);
  // Even feeding a perfectly valid frame afterwards cannot resynchronize.
  reader.feed(wire(FrameType::kPing, ""));
  EXPECT_EQ(reader.next(f), FrameStatus::kBadMagic);
}

TEST(FrameCodec, StatusNamesAreStable) {
  EXPECT_STREQ(net::frame_status_name(FrameStatus::kBadMagic), "bad-magic");
  EXPECT_STREQ(net::frame_status_name(FrameStatus::kOversized), "oversized");
  EXPECT_STREQ(net::frame_status_name(FrameStatus::kBadReserved),
               "bad-reserved");
}

// ---- payload codecs ------------------------------------------------------

TEST(ProtocolCodec, HelloRoundTrip) {
  const std::string payload = net::encode_hello();
  std::uint32_t version = 0;
  std::string software;
  ASSERT_TRUE(net::decode_hello(payload, version, software));
  EXPECT_EQ(version, net::kProtocolVersion);
  EXPECT_EQ(software, net::hello_software_id());
}

TEST(ProtocolCodec, HelloTooShortIsRejected) {
  std::uint32_t version = 0;
  std::string software;
  EXPECT_FALSE(net::decode_hello("abc", version, software));
}

TEST(ProtocolCodec, ResultRoundTrip) {
  net::ResultPayload in;
  in.summary_csv = "name,runs\njob0,4\n";
  in.runs_csv = "job,seed\njob0,1\n";
  in.report_txt = "runs 4\n";
  net::ResultPayload out;
  ASSERT_TRUE(net::decode_result(net::encode_result(in), out));
  EXPECT_EQ(in, out);
}

TEST(ProtocolCodec, ResultWithEmptySectionsRoundTrips) {
  net::ResultPayload in;  // all sections empty
  net::ResultPayload out;
  ASSERT_TRUE(net::decode_result(net::encode_result(in), out));
  EXPECT_EQ(in, out);
}

TEST(ProtocolCodec, ResultRejectsTruncationAtEveryByte) {
  net::ResultPayload in;
  in.summary_csv = "summary";
  in.runs_csv = "runs";
  in.report_txt = "report";
  const std::string bytes = net::encode_result(in);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    net::ResultPayload out;
    EXPECT_FALSE(net::decode_result(bytes.substr(0, cut), out))
        << "cut at " << cut;
  }
}

TEST(ProtocolCodec, ResultRejectsTrailingBytes) {
  net::ResultPayload in;
  in.runs_csv = "rows";
  net::ResultPayload out;
  EXPECT_FALSE(net::decode_result(net::encode_result(in) + "x", out));
}

// ---- endpoint parsing ----------------------------------------------------

TEST(EndpointParse, TcpHostPortForms) {
  const net::Endpoint a = net::parse_endpoint("127.0.0.1:8080");
  EXPECT_EQ(a.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);
  const net::Endpoint b = net::parse_endpoint("localhost:0");
  EXPECT_EQ(b.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(b.port, 0);
  EXPECT_EQ(b.to_string(), "localhost:0");
}

TEST(EndpointParse, EverythingElseIsAUnixPath) {
  for (const std::string path :
       {"/tmp/dx.sock", "./relative.sock", "no-colon", "weird:path",
        "trailing:", ":leading"}) {
    const net::Endpoint ep = net::parse_endpoint(path);
    EXPECT_EQ(ep.kind, net::Endpoint::Kind::kUnix) << path;
    EXPECT_EQ(ep.path, path);
    EXPECT_EQ(ep.to_string(), path);
  }
}

TEST(EndpointParse, EmptyAndOverflowPortAreErrors) {
  EXPECT_THROW(net::parse_endpoint(""), net::NetError);
  // Port 99999 overflows uint16: not a valid TCP endpoint, and the
  // fallback Unix interpretation is taken instead (it is a legal file
  // name).
  EXPECT_EQ(net::parse_endpoint("127.0.0.1:99999").kind,
            net::Endpoint::Kind::kUnix);
}

}  // namespace
}  // namespace distapx
