// Delta checkpoint waves and chain collapse.
//
// A 1M-session server cannot serialize its whole population every
// checkpoint interval: at ~29 KB of lossless state per session a full
// snapshot is tens of gigabytes per wave. The persistence engine instead
// writes a *chain* of waves:
//
//   keyframe (every session)  +  delta* (only sessions that advanced)
//
// Each wave is one self-validating file:
//
//   u32  magic   'UCKW'
//   u8   format version (2: filter records end in the 16-byte
//        Philox generator field; format 1 carried 2,508-byte MT19937-64
//        engine records and is rejected whole)
//   u8   kind    (0 keyframe, 1 delta)
//   u8   payload version (1 = lossless f64, 2 = quantized fixed-point)
//   u64  seq          (monotonic wave number, strictly increasing)
//   u64  parent seq   (the previous wave in the chain; 0 for a keyframe)
//   u64  accepted_since_scan (eviction-cadence counter at wave time)
//   u32  member count, then that many u64 session ids, ascending --
//        the FULL live population at wave time. Departures need no
//        tombstone records: an id absent from the membership of a later
//        wave is simply dropped during collapse.
//   u32  record count, then per dirty session (ascending id):
//        u64 id, u64 last_active_us, u64 epochs_served, u32 payload
//        length, then that many bytes of core::Uniloc payload
//   u32  CRC-32 of every preceding byte
//
// The CRC makes torn writes self-evident: a wave that fails any check is
// rejected as a unit. Collapse then applies the longest valid prefix of
// deltas whose parent links are contiguous -- a corrupt, truncated or
// missing middle delta cuts the chain there (loudly: the reject count is
// reported), never silently interleaving stale and fresh state. A
// keyframe alone is the full snapshot of a population: it is what
// LocalizationServer::snapshot() returns. See DESIGN.md section 17.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "offload/bytes.h"
#include "svc/fsio.h"

namespace uniloc::svc {

/// 'UCKW' little-endian ("Uniloc ChecKpoint Wave").
inline constexpr std::uint32_t kWaveMagic = 0x574B4355u;
inline constexpr std::uint8_t kWaveFormatVersion = 2;
inline constexpr std::uint8_t kWaveKeyframe = 0;
inline constexpr std::uint8_t kWaveDelta = 1;

/// Record payload codecs. Lossless payloads carry full f64 particle
/// state. Quantized payloads use fixed-point u16 positions/headings
/// within the venue bbox (filter/particle_filter.h): restore-then-rewave
/// is byte-stable, but the dequantized state differs from the original
/// by up to half a grid step -- quantized waves are for the durable
/// chain, never for snapshot(), whose crash/restore round trip must be
/// bit-lossless.
inline constexpr std::uint8_t kPayloadLossless = 1;
inline constexpr std::uint8_t kPayloadQuantized = 2;

/// Hard cap on a wave's membership: a 4-byte count field must not let a
/// hostile wave drive a multi-gigabyte allocation loop.
inline constexpr std::uint32_t kMaxWaveSessions = 1u << 20;

/// Hard cap on a wave file's size (4 GiB): load_wave_files skips
/// anything larger before allocating a byte of it.
inline constexpr std::uint64_t kMaxWaveFileBytes = 1ull << 32;

/// The fixed-size prefix of one session record.
struct SessionRecordHeader {
  std::uint64_t id{0};
  std::uint64_t last_active_us{0};
  std::uint64_t epochs_served{0};
  std::uint32_t payload_len{0};
};

/// The fixed fields of one wave (everything but membership + records).
struct WaveHeader {
  std::uint8_t kind{kWaveKeyframe};
  std::uint8_t payload_version{kPayloadLossless};
  std::uint64_t seq{0};
  std::uint64_t parent_seq{0};
  std::uint64_t accepted_since_scan{0};
};

/// Streaming wave encoder. Records are written in place (no per-session
/// staging buffer): begin_session returns the writer positioned after
/// the record header, end_session patches the payload length.
class WaveBuilder {
 public:
  WaveBuilder(const WaveHeader& header,
              const std::vector<std::uint64_t>& members);

  /// Start one session record; append the Uniloc payload to the returned
  /// writer, then call end_session. Sessions must be added in ascending
  /// id order (decode enforces it).
  offload::ByteWriter& begin_session(std::uint64_t id,
                                     std::uint64_t last_active_us,
                                     std::uint64_t epochs_served);
  void end_session();

  /// Patch the record count, append the CRC, and take the bytes. The
  /// builder is spent afterwards.
  std::vector<std::uint8_t> finish();

 private:
  offload::ByteWriter w_;
  std::size_t count_pos_{0};
  std::size_t len_pos_{0};
  std::size_t payload_start_{0};
  std::uint32_t record_count_{0};
  bool in_session_{false};
};

/// Decoded view of one wave. Record payloads point into the decoded
/// buffer -- the buffer must outlive the view.
struct WaveView {
  WaveHeader header;
  std::vector<std::uint64_t> members;
  struct Record {
    SessionRecordHeader h;
    const std::uint8_t* payload{nullptr};
  };
  std::vector<Record> records;
};

/// Validate and decode one wave: magic, format version, payload version,
/// CRC over the whole body, ascending membership and record ids, record
/// framing, and the membership cap. False leaves `out` unspecified;
/// hostile input can only fail cleanly.
bool decode_wave(const std::vector<std::uint8_t>& bytes, WaveView& out);

/// Result of collapsing a chain of raw wave buffers into one population.
struct ChainCollapse {
  /// False when no wave in the input decoded as a valid keyframe.
  bool ok{false};
  /// Deltas applied on top of the chosen keyframe (longest valid,
  /// contiguous, version-consistent prefix).
  std::size_t deltas_applied{0};
  /// Waves present but not applied: corrupt, truncated, out of
  /// sequence, or cut off by an earlier broken link. Non-zero means the
  /// chain was damaged -- the caller should log it and force a keyframe.
  std::size_t waves_rejected{0};
  /// seq of the last applied wave.
  std::uint64_t seq{0};
  /// The chain's payload codec and the last applied wave's
  /// eviction-cadence counter.
  std::uint8_t payload_version{kPayloadLossless};
  std::uint64_t accepted_since_scan{0};
  /// The collapsed population, ascending id. Payloads point into the
  /// input wave buffers, which must outlive these records.
  std::vector<WaveView::Record> records;
};

/// Collapse `waves` (ascending seq order, e.g. from load_wave_files) by
/// starting at the NEWEST valid keyframe and overlaying each delta whose
/// parent link matches the previous wave. Membership lists prune
/// departed sessions; later records replace earlier ones.
ChainCollapse collapse_chain(
    const std::vector<std::vector<std::uint8_t>>& waves);

/// Wave file naming: zero-padded seq so lexicographic order is seq
/// order ("wave-00000000000000000042.bin").
std::string wave_file_name(std::uint64_t seq);

/// Publish one wave file into `dir` (atomic_publish discipline).
bool write_wave_file(const std::string& dir, std::uint64_t seq,
                     const std::vector<std::uint8_t>& bytes,
                     const FsOps& ops = {});

/// Read every wave-*.bin in `dir`, ascending seq. Unreadable or
/// oversized files are skipped (collapse_chain rejects damage that
/// parses). A non-null `newest_seq` receives the highest seq among the
/// wave file names, skipped files included (0 when there are none).
/// Returns empty when the directory is missing.
std::vector<std::vector<std::uint8_t>> load_wave_files(
    const std::string& dir, std::uint64_t* newest_seq = nullptr);

/// Delete wave files with seq strictly below `keep_from` -- called after
/// a keyframe at `keep_from` is durable, so the chain prefix it replaced
/// can be reclaimed. Returns the number removed.
std::size_t prune_wave_files(const std::string& dir, std::uint64_t keep_from,
                             const FsOps& ops = {});

}  // namespace uniloc::svc
