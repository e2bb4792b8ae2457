// Philox4x32-10, the counter-based generator of Salmon et al., "Parallel
// Random Numbers: As Easy as 1, 2, 3" (SC'11).
//
// A counter-based generator has no stream state: block n is a keyed
// bijection of n itself, so any draw is addressable without producing
// the draws before it. The particle filters use this twice over. Their
// whole generator state is a 64-bit key and a 64-bit block counter (16
// bytes, where an MT19937-64 engine is 2,504), and a vector loop can
// compute each particle's block in its own lane.
//
// Each 32-bit Philox word travels in the low half of a u64 whose high
// half is zero: a 32 x 32 -> 64 product is then exact in u64
// arithmetic, its high and low words are a shift and a mask, and a loop
// that computes blocks holds one integer width, the width of its u64
// draws. Plain integer operations only, so every build and platform
// produces the same bits.
#pragma once

#include <cstdint>

namespace uniloc::stats {

inline constexpr std::uint64_t kPhiloxLo32 = 0xFFFFFFFFull;

/// Ten Philox4x32 rounds over the counter words (x0, x1, x2, x3) under
/// the key words (k0, k1), in place. Every argument is a 32-bit word in
/// a u64 (high half zero), and so is every result. This is Random123's
/// philox4x32_R(10, ...): round 0 uses the key as given, and each later
/// round bumps it by the Weyl constants first.
[[gnu::always_inline]] inline void philox4x32_10(std::uint64_t& x0,
                                                 std::uint64_t& x1,
                                                 std::uint64_t& x2,
                                                 std::uint64_t& x3,
                                                 std::uint64_t k0,
                                                 std::uint64_t k1) {
  constexpr std::uint64_t kM0 = 0xD2511F53u;
  constexpr std::uint64_t kM1 = 0xCD9E8D57u;
  constexpr std::uint64_t kW0 = 0x9E3779B9u;
  constexpr std::uint64_t kW1 = 0xBB67AE85u;
  // Fully unrolled: a loop left inside a vector loop's body keeps that
  // loop scalar.
#pragma GCC unroll 10
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      k0 = (k0 + kW0) & kPhiloxLo32;
      k1 = (k1 + kW1) & kPhiloxLo32;
    }
    const std::uint64_t p0 = kM0 * x0;
    const std::uint64_t p1 = kM1 * x2;
    const std::uint64_t y0 = (p1 >> 32) ^ x1 ^ k0;
    const std::uint64_t y2 = (p0 >> 32) ^ x3 ^ k1;
    x1 = p1 & kPhiloxLo32;
    x3 = p0 & kPhiloxLo32;
    x0 = y0;
    x2 = y2;
  }
}

/// Block `n` under the 64-bit `key`, as two 64-bit draws: the counter
/// words are (lo32 n, hi32 n, 0, 0), the key words (lo32 key, hi32 key),
/// and the output words w0..w3 give a = w1 << 32 | w0, b = w3 << 32 | w2.
/// A pure function of (key, n); the filters' draw layout is built on it
/// (filter/particle_filter.h).
[[gnu::always_inline]] inline void philox_block(std::uint64_t key,
                                                std::uint64_t n,
                                                std::uint64_t& a,
                                                std::uint64_t& b) {
  std::uint64_t w0 = n & kPhiloxLo32;
  std::uint64_t w1 = n >> 32;
  std::uint64_t w2 = 0;
  std::uint64_t w3 = 0;
  philox4x32_10(w0, w1, w2, w3, key & kPhiloxLo32, key >> 32);
  a = w1 << 32 | w0;
  b = w3 << 32 | w2;
}

}  // namespace uniloc::stats
