#include "svc/wire.h"

#include <cmath>

namespace uniloc::svc {

using offload::ByteReader;
using offload::ByteWriter;

const char* wire_error_name(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kBadType: return "bad_type";
    case WireError::kBadLength: return "bad_length";
  }
  return "unknown";
}

namespace {

bool known_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kEpoch:
    case FrameType::kBye:
    case FrameType::kStatus:
    case FrameType::kReply:
    case FrameType::kError:
      return true;
  }
  return false;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(kHeaderBytes - 4 +
                                       frame.payload.size()));
  w.put_u32(kMagic);
  w.put_u8(kVersion);
  w.put_u8(static_cast<std::uint8_t>(frame.type));
  w.put_u64(frame.session_id);
  if (!frame.payload.empty()) {
    w.put_bytes(frame.payload.data(), frame.payload.size());
  }
  return w.take();
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size) {
  DecodeResult res;
  ByteReader r(data, size);
  std::uint32_t length;
  if (!r.get_u32(length)) {
    res.error = WireError::kTruncated;
    return res;
  }
  if (length < kHeaderBytes - 4 ||
      length > kHeaderBytes - 4 + kMaxPayloadBytes) {
    res.error = WireError::kBadLength;
    return res;
  }
  if (r.remaining() < length) {
    res.error = WireError::kTruncated;
    return res;
  }
  std::uint32_t magic;
  std::uint8_t version, type;
  Frame frame;
  r.get_u32(magic);
  r.get_u8(version);
  r.get_u8(type);
  r.get_u64(frame.session_id);
  if (magic != kMagic) {
    res.error = WireError::kBadMagic;
    return res;
  }
  if (version != kVersion) {
    res.error = WireError::kBadVersion;
    return res;
  }
  if (!known_type(type)) {
    res.error = WireError::kBadType;
    return res;
  }
  frame.type = static_cast<FrameType>(type);
  const std::size_t payload_size = length - (kHeaderBytes - 4);
  frame.payload.assign(data + kHeaderBytes,
                       data + kHeaderBytes + payload_size);
  res.frame = std::move(frame);
  res.consumed = kHeaderBytes + payload_size;
  return res;
}

DecodeResult decode_frame(const std::vector<std::uint8_t>& buf) {
  return decode_frame(buf.data(), buf.size());
}

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello) {
  ByteWriter w;
  w.put_i32(static_cast<std::int32_t>(std::lround(hello.start.x * 100.0)));
  w.put_i32(static_cast<std::int32_t>(std::lround(hello.start.y * 100.0)));
  w.put_i32(static_cast<std::int32_t>(std::lround(hello.heading * 1e6)));
  return w.take();
}

std::optional<HelloPayload> parse_hello(
    const std::vector<std::uint8_t>& buf) {
  ByteReader r(buf);
  std::int32_t x_cm, y_cm, heading_urad;
  if (!r.get_i32(x_cm) || !r.get_i32(y_cm) || !r.get_i32(heading_urad) ||
      r.remaining() != 0) {
    return std::nullopt;
  }
  HelloPayload hello;
  hello.start = {static_cast<double>(x_cm) / 100.0,
                 static_cast<double>(y_cm) / 100.0};
  hello.heading = static_cast<double>(heading_urad) / 1e6;
  return hello;
}

std::vector<std::uint8_t> encode_status_request(StatusFormat format) {
  return {static_cast<std::uint8_t>(format)};
}

std::optional<StatusFormat> parse_status_request(
    const std::vector<std::uint8_t>& buf) {
  if (buf.size() != 1) return std::nullopt;
  switch (static_cast<StatusFormat>(buf[0])) {
    case StatusFormat::kJson:
    case StatusFormat::kPrometheus:
      return static_cast<StatusFormat>(buf[0]);
  }
  return std::nullopt;
}

Frame make_error_frame(std::uint64_t session_id, ErrorCode code) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.session_id = session_id;
  frame.payload = {static_cast<std::uint8_t>(code)};
  return frame;
}

std::optional<ErrorCode> error_code(const Frame& frame) {
  if (frame.type != FrameType::kError || frame.payload.empty()) {
    return std::nullopt;
  }
  return static_cast<ErrorCode>(frame.payload[0]);
}

}  // namespace uniloc::svc
