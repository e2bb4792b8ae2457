// svc wire protocol: length-prefixed binary frames.
//
// Every request and reply of the localization service is one frame:
//
//   u32  length      bytes that follow this field (= 14 + payload size)
//   u32  magic       0x434F4C55 ("ULOC", little-endian)
//   u8   version     kVersion
//   u8   type        FrameType
//   u64  session_id
//   ...  payload     type-specific (offload payload codecs inside)
//
// decode_frame() is the hostile-input boundary of the server: bad magic,
// unknown version/type, an inconsistent or oversized length field, and
// truncation each map to a distinct WireError, and the parser never reads
// past the supplied buffer (all access goes through offload::ByteReader).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/vec2.h"
#include "offload/bytes.h"

namespace uniloc::svc {

inline constexpr std::uint32_t kMagic = 0x434F4C55;  // "ULOC"
inline constexpr std::uint8_t kVersion = 1;
/// u32 length + u32 magic + u8 version + u8 type + u64 session id.
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 1 + 8;
/// Sanity cap on the length field: no legitimate frame comes close.
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,  ///< Open a session; payload = HelloPayload.
  kEpoch = 2,  ///< One localization epoch; payload = epoch request.
  kBye = 3,    ///< Close a session; empty payload.
  kStatus = 4,  ///< Admin: dump server health; payload = one
                ///< StatusFormat byte. Reply payload = UTF-8 text.
  kReply = 0x81,  ///< Server reply; payload = DownlinkFrame bytes (kEpoch)
                  ///< or empty (kHello / kBye acks).
  kError = 0xFF,  ///< Server rejection; payload = one ErrorCode byte.
};

/// Requested encoding of a kStatus dump.
enum class StatusFormat : std::uint8_t {
  kJson = 0,        ///< One JSON document (statusz schema, DESIGN.md §13).
  kPrometheus = 1,  ///< Prometheus text exposition format 0.0.4.
};

enum class WireError : std::uint8_t {
  kNone = 0,
  kTruncated,   ///< Buffer shorter than the header or the declared length.
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadLength,   ///< Length field below minimum or above kMaxPayloadBytes.
};

const char* wire_error_name(WireError e);

/// Application-level rejection codes carried by kError replies.
enum class ErrorCode : std::uint8_t {
  kMalformed = 1,       ///< Frame or payload failed to parse.
  kUnknownSession = 2,  ///< kEpoch/kBye for a session id never opened
                        ///< (or already evicted).
  kBackpressure = 3,    ///< The session's inbox is full; retry later.
  kShuttingDown = 4,
  kSessionExists = 5,   ///< kHello for an id that is already live.
};

struct Frame {
  FrameType type{FrameType::kError};
  std::uint64_t session_id{0};
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> encode_frame(const Frame& frame);

struct DecodeResult {
  std::optional<Frame> frame;       ///< Set iff error == kNone.
  WireError error{WireError::kNone};
  std::size_t consumed{0};          ///< Whole-frame size on success.
};

/// Parse one frame from the front of [data, data+size).
DecodeResult decode_frame(const std::uint8_t* data, std::size_t size);
DecodeResult decode_frame(const std::vector<std::uint8_t>& buf);

/// kHello payload: the walk's start condition, quantized like the
/// downlink (cm position, microradian heading) -- 12 bytes.
struct HelloPayload {
  geo::Vec2 start;
  double heading{0.0};

  static constexpr std::size_t kBytes = 12;
};

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello);
std::optional<HelloPayload> parse_hello(const std::vector<std::uint8_t>& buf);

/// kStatus payload codecs (session_id is ignored on status frames).
std::vector<std::uint8_t> encode_status_request(StatusFormat format);
std::optional<StatusFormat> parse_status_request(
    const std::vector<std::uint8_t>& buf);

/// Convenience builders for server replies.
Frame make_error_frame(std::uint64_t session_id, ErrorCode code);
/// The code carried by a kError frame; nullopt for other types or an
/// empty payload.
std::optional<ErrorCode> error_code(const Frame& frame);

}  // namespace uniloc::svc
