// Deterministic random-number utilities.
//
// Every stochastic component in the simulator takes an explicit seed so
// that benches reproduce the same tables run-to-run. splitmix64 is used to
// derive independent sub-seeds and as the hash behind the spatial noise
// field.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace uniloc::stats {

/// splitmix64 hash step; good avalanche, cheap, stable across platforms.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Combine seeds/ids into one 64-bit stream id.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

/// Uniform [0,1) double from a 64-bit hash value (53 mantissa bits).
constexpr double hash_to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// MT19937-64, the simulator's engine. [rand.eng.mers] fixes the
/// seeding, the twist and the tempering, so the stream is bit-identical
/// to the standard library's mt19937_64; its branch-free one-pass twist
/// draws faster (BM_EngineDraw). No checkpoint carries it: the particle
/// filters draw from their own Philox state (stats/philox.h). A uniform
/// random bit generator: the std distributions and std::shuffle accept
/// it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos >= state_size) twist();
    result_type z = state[pos++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  /// Regenerates all 312 words in one pass and rewinds pos.
  void twist();

  /// Untempered state words; the next draw tempers state[pos].
  std::array<result_type, state_size> state;
  /// Read position in [0, state_size]; state_size means "twist first".
  std::uint64_t pos;
};

/// Seeded mersenne-twister engine wrapper with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  Mt19937_64& engine() { return engine_; }
  const Mt19937_64& engine() const { return engine_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard or parameterised normal draw.
  double normal(double mean = 0.0, double sd = 1.0) {
    return std::normal_distribution<double>(mean, sd)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derive an independent child generator for a named sub-stream.
  Rng fork(std::uint64_t stream_id) {
    return Rng(hash_combine(engine_(), stream_id));
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace uniloc::stats
