#include "svc/checkpoint.h"

#include <cstdio>

namespace uniloc::svc {

void write_snapshot_header(offload::ByteWriter& w, std::uint8_t version) {
  w.put_u32(kSnapshotMagic);
  w.put_u8(version);
}

bool check_snapshot_header(offload::ByteReader& r, std::uint8_t& version) {
  std::uint32_t magic;
  if (!r.get_u32(magic) || magic != kSnapshotMagic) return false;
  if (!r.get_u8(version)) return false;
  return version == kSnapshotVersion || version == kSnapshotVersionQuantized;
}

bool read_session_record_header(offload::ByteReader& r,
                                SessionRecordHeader& out) {
  if (!r.get_u64(out.id) || !r.get_u64(out.last_active_us) ||
      !r.get_u64(out.epochs_served) || !r.get_u32(out.payload_len)) {
    return false;
  }
  return out.payload_len <= r.remaining();
}

std::string checkpoint_path(const std::string& dir) {
  return dir + "/checkpoint.bin";
}

bool write_checkpoint_file(const std::string& dir,
                           const std::vector<std::uint8_t>& bytes,
                           const FsOps& ops) {
  // write(+fsync) temp -> rename -> fsync dir, all through atomic_publish
  // so the checkpoint file and the delta-chain wave files share one
  // durability discipline (DESIGN.md section 17).
  return atomic_publish(ops, dir, "checkpoint.bin", bytes);
}

std::optional<std::vector<std::uint8_t>> read_checkpoint_file(
    const std::string& dir) {
  std::FILE* f = std::fopen(checkpoint_path(dir).c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  // Stat first: size the buffer once and enforce the hostile-input cap
  // before allocating, instead of growing a vector 4 KB at a time with
  // no bound (the PR-5 read path's bug).
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || static_cast<std::uint64_t>(size) > kMaxCheckpointFileBytes ||
      std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const bool ok =
      bytes.empty() ||
      std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) return std::nullopt;
  return bytes;
}

}  // namespace uniloc::svc
