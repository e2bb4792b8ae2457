// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Guards the checkpoint wave files: a wave's trailing CRC covers every
// preceding byte, so a torn write, a bit flip, or a truncated tail is
// detected before any record is parsed. It runs in WaveBuilder::finish()
// on the thread that cuts the wave -- the server's ingress thread, where
// every microsecond delays the epochs that fall due during the wave --
// and again on every restore. Slicing-by-8 (eight 256-entry tables fold
// eight bytes per step; a byte-at-a-time loop takes the tail) checksums
// an 11.4 KB session record in ~6 us (bench/micro_ops BM_Crc32 on a
// 4-core x86-64 box); one byte per step took ~31 us there.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace uniloc::offload {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic one-byte table; tables[k][b] is tables[0][b]
/// carried through k more zero bytes, so one step folds byte j of an
/// eight-byte block through tables[7 - j].
inline constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();
}  // namespace detail

static_assert(std::endian::native == std::endian::little,
              "crc32 loads eight-byte blocks in host byte order");

/// CRC-32 of `n` bytes. `seed` chains partial updates:
/// crc32(b, n) == crc32(b + k, n - k, crc32(b, k)).
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const detail::Crc32Tables& t = detail::kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace uniloc::offload
