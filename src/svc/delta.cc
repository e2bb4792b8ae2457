#include "svc/delta.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <system_error>

#include "offload/crc32.h"

namespace uniloc::svc {

namespace {

/// Consume one record header and validate `payload_len` against the
/// remaining buffer; on success the reader is positioned at the first
/// byte of the core::Uniloc payload.
bool read_session_record_header(offload::ByteReader& r,
                                SessionRecordHeader& out) {
  if (!r.get_u64(out.id) || !r.get_u64(out.last_active_us) ||
      !r.get_u64(out.epochs_served) || !r.get_u32(out.payload_len)) {
    return false;
  }
  return out.payload_len <= r.remaining();
}

}  // namespace

WaveBuilder::WaveBuilder(const WaveHeader& header,
                         const std::vector<std::uint64_t>& members) {
  w_.put_u32(kWaveMagic);
  w_.put_u8(kWaveFormatVersion);
  w_.put_u8(header.kind);
  w_.put_u8(header.payload_version);
  w_.put_u64(header.seq);
  w_.put_u64(header.parent_seq);
  w_.put_u64(header.accepted_since_scan);
  w_.put_u32(static_cast<std::uint32_t>(members.size()));
  for (const std::uint64_t id : members) w_.put_u64(id);
  count_pos_ = w_.size();
  w_.put_u32(0);  // record count, patched by finish()
}

offload::ByteWriter& WaveBuilder::begin_session(std::uint64_t id,
                                                std::uint64_t last_active_us,
                                                std::uint64_t epochs_served) {
  assert(!in_session_);
  w_.put_u64(id);
  w_.put_u64(last_active_us);
  w_.put_u64(epochs_served);
  len_pos_ = w_.size();
  w_.put_u32(0);  // payload length, patched by end_session()
  payload_start_ = w_.size();
  in_session_ = true;
  return w_;
}

void WaveBuilder::end_session() {
  assert(in_session_);
  w_.patch_u32(len_pos_,
               static_cast<std::uint32_t>(w_.size() - payload_start_));
  ++record_count_;
  in_session_ = false;
}

std::vector<std::uint8_t> WaveBuilder::finish() {
  assert(!in_session_);
  w_.patch_u32(count_pos_, record_count_);
  const std::vector<std::uint8_t>& body = w_.bytes();
  w_.put_u32(offload::crc32(body.data(), body.size()));
  return w_.take();
}

bool decode_wave(const std::vector<std::uint8_t>& bytes, WaveView& out) {
  // Fixed prefix (25 bytes) + two u32 counts + trailing CRC is the
  // smallest possible wave.
  if (bytes.size() < 25 + 4 + 4 + 4) return false;
  const std::size_t body_len = bytes.size() - 4;
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<std::uint32_t>(bytes[body_len + i]) << (8 * i);
  }
  // CRC first: everything after this line may assume the bytes are the
  // bytes the builder wrote (modulo a hostile-but-consistent file, which
  // the structural checks below still reject).
  if (offload::crc32(bytes.data(), body_len) != stored_crc) return false;

  offload::ByteReader r(bytes.data(), body_len);
  std::uint32_t magic;
  std::uint8_t format_version;
  if (!r.get_u32(magic) || magic != kWaveMagic) return false;
  if (!r.get_u8(format_version) || format_version != kWaveFormatVersion) {
    return false;
  }
  WaveHeader h;
  if (!r.get_u8(h.kind) || (h.kind != kWaveKeyframe && h.kind != kWaveDelta)) {
    return false;
  }
  if (!r.get_u8(h.payload_version) ||
      (h.payload_version != kPayloadLossless &&
       h.payload_version != kPayloadQuantized)) {
    return false;
  }
  if (!r.get_u64(h.seq) || !r.get_u64(h.parent_seq) ||
      !r.get_u64(h.accepted_since_scan)) {
    return false;
  }
  if (h.seq == 0) return false;
  if (h.kind == kWaveKeyframe ? h.parent_seq != 0 : h.parent_seq >= h.seq) {
    return false;
  }

  std::uint32_t member_count;
  if (!r.get_u32(member_count) || member_count > kMaxWaveSessions ||
      static_cast<std::uint64_t>(member_count) * 8 > r.remaining()) {
    return false;
  }
  std::vector<std::uint64_t> members(member_count);
  for (std::uint32_t i = 0; i < member_count; ++i) {
    if (!r.get_u64(members[i])) return false;
    if (i > 0 && members[i] <= members[i - 1]) return false;  // ascending
  }

  std::uint32_t record_count;
  if (!r.get_u32(record_count) || record_count > member_count) return false;
  // A keyframe carries every live session; a delta only the dirty subset.
  if (h.kind == kWaveKeyframe && record_count != member_count) return false;

  std::vector<WaveView::Record> records(record_count);
  std::uint64_t prev_id = 0;
  for (std::uint32_t i = 0; i < record_count; ++i) {
    WaveView::Record& rec = records[i];
    if (!read_session_record_header(r, rec.h)) return false;
    if (i > 0 && rec.h.id <= prev_id) return false;
    prev_id = rec.h.id;
    // Every record must describe a live session: a record for an id
    // outside the membership would be resurrected by collapse.
    if (!std::binary_search(members.begin(), members.end(), rec.h.id)) {
      return false;
    }
    rec.payload = bytes.data() + r.pos();
    if (!r.skip(rec.h.payload_len)) return false;
  }
  if (r.remaining() != 0) return false;

  out.header = h;
  out.members = std::move(members);
  out.records = std::move(records);
  return true;
}

ChainCollapse collapse_chain(
    const std::vector<std::vector<std::uint8_t>>& waves) {
  ChainCollapse out;
  std::vector<std::optional<WaveView>> views(waves.size());
  for (std::size_t i = 0; i < waves.size(); ++i) {
    WaveView v;
    if (decode_wave(waves[i], v)) {
      views[i] = std::move(v);
    } else {
      ++out.waves_rejected;
    }
  }
  // Start from the NEWEST valid keyframe: everything before it is
  // superseded (normally already pruned), everything after must link up.
  std::size_t kf = views.size();
  for (std::size_t i = views.size(); i-- > 0;) {
    if (views[i].has_value() && views[i]->header.kind == kWaveKeyframe) {
      kf = i;
      break;
    }
  }
  if (kf == views.size()) return out;  // ok stays false: no keyframe

  WaveView& kv = *views[kf];
  out.seq = kv.header.seq;
  out.payload_version = kv.header.payload_version;
  out.accepted_since_scan = kv.header.accepted_since_scan;
  out.records = std::move(kv.records);
  bool broken = false;
  for (std::size_t i = kf + 1; i < views.size(); ++i) {
    if (!views[i].has_value()) continue;  // already counted as rejected
    const WaveView& dv = *views[i];
    // A broken link cuts the chain: later deltas would overlay fresh
    // records onto state that is missing the intermediate updates.
    if (broken || dv.header.kind != kWaveDelta ||
        dv.header.parent_seq != out.seq ||
        dv.header.payload_version != out.payload_version) {
      broken = true;
      ++out.waves_rejected;
      continue;
    }
    // Membership is authoritative: an id absent from it departed, and a
    // record replaces the session's previous one. Members, records and
    // the state are all id-ascending, so one merge pass does both.
    std::vector<WaveView::Record> next;
    next.reserve(dv.members.size());
    auto prev = out.records.cbegin();
    auto rec = dv.records.cbegin();
    for (const std::uint64_t id : dv.members) {
      while (prev != out.records.cend() && prev->h.id < id) ++prev;
      if (rec != dv.records.cend() && rec->h.id == id) {
        next.push_back(*rec++);
      } else if (prev != out.records.cend() && prev->h.id == id) {
        next.push_back(*prev);
      }
    }
    out.records = std::move(next);
    out.seq = dv.header.seq;
    out.accepted_since_scan = dv.header.accepted_since_scan;
    ++out.deltas_applied;
  }
  out.ok = true;
  return out;
}

namespace {

constexpr const char* kWavePrefix = "wave-";
constexpr const char* kWaveSuffix = ".bin";

/// "wave-<20 digits>.bin" -> seq; nullopt for anything else (including
/// leftover .tmp files from a crashed publish).
std::optional<std::uint64_t> parse_wave_seq(const std::string& name) {
  const std::size_t prefix_len = 5, suffix_len = 4, digits = 20;
  if (name.size() != prefix_len + digits + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kWavePrefix) != 0 ||
      name.compare(prefix_len + digits, suffix_len, kWaveSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = prefix_len; i < prefix_len + digits; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(name[i] - '0');
    if (seq > (UINT64_MAX - digit) / 10) return std::nullopt;
    seq = seq * 10 + digit;
  }
  return seq;
}

std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || static_cast<std::uint64_t>(size) > kMaxWaveFileBytes ||
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

std::vector<std::pair<std::uint64_t, std::string>> list_wave_paths(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto seq = parse_wave_seq(name)) {
      out.emplace_back(*seq, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string wave_file_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wave-%020llu.bin",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool write_wave_file(const std::string& dir, std::uint64_t seq,
                     const std::vector<std::uint8_t>& bytes,
                     const FsOps& ops) {
  return atomic_publish(ops, dir, wave_file_name(seq), bytes);
}

std::vector<std::vector<std::uint8_t>> load_wave_files(
    const std::string& dir, std::uint64_t* newest_seq) {
  std::vector<std::vector<std::uint8_t>> out;
  const auto paths = list_wave_paths(dir);
  for (const auto& [seq, path] : paths) {
    if (auto bytes = read_file_bytes(path)) out.push_back(std::move(*bytes));
  }
  if (newest_seq != nullptr) {
    *newest_seq = paths.empty() ? 0 : paths.back().first;
  }
  return out;
}

std::size_t prune_wave_files(const std::string& dir, std::uint64_t keep_from,
                             const FsOps& ops) {
  const FsOps fs = FsOps::resolve(ops);
  std::size_t removed = 0;
  for (const auto& [seq, path] : list_wave_paths(dir)) {
    if (seq < keep_from && fs.remove_file(path)) ++removed;
  }
  return removed;
}

}  // namespace uniloc::svc
