#include "stats/rng.h"

namespace uniloc::stats {

namespace {
// mt19937_64's parameters ([rand.predef]): w = 64, n = 312, m = 156,
// r = 31, a = 0xB5026F5AA96619E9, f = 6364136223846793005.
constexpr std::size_t kShift = 156;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

// One word of the twist: the upper 33 bits of `hi` joined to the lower
// 31 of `lo`, shifted and conditionally xored with a (branch-free, so
// the passes below vectorize), then xored into `far`, the word m places
// ahead.
inline std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo,
                                std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state[0] = seed;
  for (std::size_t i = 1; i < state_size; ++i) {
    const std::uint64_t x = state[i - 1];
    state[i] = (x ^ (x >> 62)) * kInitMultiplier + i;
  }
  pos = state_size;
}

void Mt19937_64::twist() {
  std::uint64_t* x = state.data();
  constexpr std::size_t n = state_size;
  for (std::size_t k = 0; k < n - kShift; ++k) {
    x[k] = twist_word(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    x[k] = twist_word(x[k], x[k + 1], x[k + kShift - n]);
  }
  x[n - 1] = twist_word(x[n - 1], x[0], x[kShift - 1]);
  pos = 0;
}

}  // namespace uniloc::stats
