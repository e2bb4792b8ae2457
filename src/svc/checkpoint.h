// Versioned session-snapshot format and atomic checkpoint files.
//
// A snapshot is the full serialized state of a LocalizationServer's
// session population, framed so that a restorer can validate it before
// touching any session state (DESIGN.md section 12):
//
//   u32  magic   'UCKP'
//   u8   version (currently 1; other versions are rejected)
//   u64  accepted_since_scan   (eviction-scan cadence counter)
//   u32  session count
//   per session, in ascending id order:
//     u64  session id
//     u64  last_active_us
//     u64  epochs_served
//     u32  payload length
//     ...  core::Uniloc payload (core/uniloc.cc), exactly `length` bytes
//
// The codec is deliberately hostile-input safe: every length is checked
// against the remaining buffer, scheme payloads are name-tagged and
// framing-verified, and the mt19937 read position is range-checked before
// it ever indexes the engine (stats/rng_codec.h). A corrupted or
// truncated snapshot yields `false` from restore, never UB.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "offload/bytes.h"
#include "svc/fsio.h"

namespace uniloc::svc {

/// 'UCKP' little-endian ("Uniloc ChecKPoint").
inline constexpr std::uint32_t kSnapshotMagic = 0x504B4355u;
/// Version 1: per-session payloads carry full f64 particle state.
inline constexpr std::uint8_t kSnapshotVersion = 1;
/// Version 2: per-session payloads use the quantized particle codec
/// (fixed-point u16 positions/headings within the venue bbox; see
/// filter/particle_filter.h). Restore-then-resnapshot is byte-stable,
/// but the dequantized state differs from the original by up to half a
/// grid step -- v2 is for the durable checkpoint chain, never for
/// snapshot(), whose crash/restore round trip must be bit-lossless.
inline constexpr std::uint8_t kSnapshotVersionQuantized = 2;

/// Hard cap on the decoded session count: a 4-byte count field must not
/// let a hostile snapshot drive a multi-gigabyte allocation loop.
inline constexpr std::uint32_t kMaxSnapshotSessions = 1u << 20;

/// Hard cap on a checkpoint file's size (4 GiB): read_checkpoint_file
/// rejects anything larger before allocating a byte of it, so a hostile
/// or corrupt path cannot drive an unbounded read loop.
inline constexpr std::uint64_t kMaxCheckpointFileBytes = 1ull << 32;

/// Write the snapshot header (magic + version). `version` must be
/// kSnapshotVersion or kSnapshotVersionQuantized.
void write_snapshot_header(offload::ByteWriter& w,
                           std::uint8_t version = kSnapshotVersion);

/// Consume and validate the header; false on bad magic or an unknown
/// version. On success `version` holds the snapshot's payload codec
/// version (callers thread it into Uniloc::restore_from).
bool check_snapshot_header(offload::ByteReader& r, std::uint8_t& version);

/// The fixed-size prefix of one per-session record. Shared by the full
/// server snapshot and the delta chain's wave records (svc/delta.h).
struct SessionRecordHeader {
  std::uint64_t id{0};
  std::uint64_t last_active_us{0};
  std::uint64_t epochs_served{0};
  std::uint32_t payload_len{0};
};

/// Consume one record header and validate `payload_len` against the
/// remaining buffer; on success the reader is positioned at the first
/// byte of the core::Uniloc payload. False on truncation or an
/// impossible length -- the reader position is then unspecified.
bool read_session_record_header(offload::ByteReader& r,
                                SessionRecordHeader& out);

/// Atomically replace `dir`/checkpoint.bin with `bytes`: written to a
/// temp file in the same directory, fsync'd, renamed over the target,
/// then the directory fd is fsync'd so the rename itself survives a
/// crash (without the dir fsync a crash after rename can lose the newly
/// published checkpoint -- the regression the FsOps hook pins). Returns
/// false on any I/O failure. `ops` injects the filesystem primitives
/// for the torn-write tests; default uses the real implementation.
bool write_checkpoint_file(const std::string& dir,
                           const std::vector<std::uint8_t>& bytes,
                           const FsOps& ops = {});

/// Read back `dir`/checkpoint.bin; nullopt when absent or unreadable.
std::optional<std::vector<std::uint8_t>> read_checkpoint_file(
    const std::string& dir);

/// The checkpoint file path used by the helpers above.
std::string checkpoint_path(const std::string& dir);

}  // namespace uniloc::svc
