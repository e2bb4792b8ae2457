#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "stats/gaussian.h"
#include "stats/philox.h"
#include "stats/rng.h"
#include "stats/special.h"
#include "stats/vecmath.h"

namespace uniloc::stats {
namespace {

TEST(Gaussian, PdfSymmetricAndPeaked) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_DOUBLE_EQ(normal_pdf(1.5), normal_pdf(-1.5));
  EXPECT_GT(normal_pdf(0.0), normal_pdf(0.1));
}

TEST(Gaussian, PdfScalesWithSd) {
  EXPECT_NEAR(normal_pdf(0.0, 0.0, 2.0), normal_pdf(0.0) / 2.0, 1e-12);
}

TEST(Gaussian, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(Gaussian, CdfMonotone) {
  double prev = 0.0;
  for (double x = -5.0; x <= 5.0; x += 0.1) {
    const double c = normal_cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Gaussian, QuantileInvertsCdf) {
  for (double p = 0.01; p < 1.0; p += 0.01) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-7);
  }
}

TEST(Gaussian, ParameterizedCdf) {
  EXPECT_NEAR(normal_cdf(10.0, 10.0, 3.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(13.0, 10.0, 3.0), normal_cdf(1.0), 1e-12);
}

TEST(Gaussian, ValueObject) {
  const Gaussian g{5.0, 2.0};
  EXPECT_NEAR(g.cdf(5.0), 0.5, 1e-12);
  EXPECT_GT(g.pdf(5.0), g.pdf(8.0));
}

TEST(Descriptive, MeanAndVariance) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 4.571428571428571, 1e-12);  // n-1 denominator
  EXPECT_NEAR(stddev(v), std::sqrt(variance(v)), 1e-12);
}

TEST(Descriptive, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
}

TEST(Descriptive, Rmse) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<double> truth{1.0, 2.0, 5.0};
  EXPECT_NEAR(rmse(pred, truth), std::sqrt(4.0 / 3.0), 1e-12);
  const std::vector<double> one{1.0};
  EXPECT_THROW(rmse(pred, one), std::invalid_argument);
}

TEST(Descriptive, NormalizedRmse) {
  const std::vector<double> pred{2.0, 2.0};
  const std::vector<double> truth{1.0, 3.0};
  // rmse = 1, mean(truth) = 2.
  EXPECT_NEAR(normalized_rmse(pred, truth), 0.5, 1e-12);
}

TEST(Descriptive, Percentile) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Descriptive, PercentileInterpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.0);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(v), -1.0);
  EXPECT_DOUBLE_EQ(max_of(v), 7.0);
}

TEST(Ecdf, FractionBelow) {
  const Ecdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
}

TEST(Ecdf, QuantileOrderStatistics) {
  const Ecdf cdf({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
}

TEST(Ecdf, CurveIsMonotone) {
  const Ecdf cdf({5.0, 1.0, 3.0, 2.0, 4.0, 2.5});
  const auto curve = cdf.curve(20);
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
}

TEST(Special, IncompleteBetaBoundaries) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(Special, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a)
  EXPECT_NEAR(incomplete_beta(2.0, 5.0, 0.3),
              1.0 - incomplete_beta(5.0, 2.0, 0.7), 1e-10);
}

TEST(Special, StudentTCdfKnownValues) {
  // t(inf dof) -> normal; t=0 -> 0.5 always.
  EXPECT_NEAR(student_t_cdf(0.0, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(2.015, 5.0), 0.95, 1e-3);   // t table
  EXPECT_NEAR(student_t_cdf(-2.015, 5.0), 0.05, 1e-3);
  EXPECT_NEAR(student_t_cdf(1.96, 1e6), normal_cdf(1.96), 1e-4);
}

TEST(Special, TwoSidedPValue) {
  EXPECT_NEAR(t_test_p_value(0.0, 10.0), 1.0, 1e-12);
  EXPECT_NEAR(t_test_p_value(2.228, 10.0), 0.05, 1e-3);  // t table, dof=10
  EXPECT_NEAR(t_test_p_value(2.228, 10.0), t_test_p_value(-2.228, 10.0),
              1e-12);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(r.normal(3.0, 2.0));
  EXPECT_NEAR(mean(xs), 3.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  Rng base(1);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  // Different streams should diverge immediately.
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(Rng, HashToUnitInRange) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = hash_to_unit(splitmix64(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SplitmixAvalanche) {
  // Adjacent inputs produce very different outputs.
  EXPECT_NE(splitmix64(1) >> 32, splitmix64(2) >> 32);
  EXPECT_NE(splitmix64(0), 0u);
}

// --- the in-tree MT19937-64 against std::mt19937_64 --------------------
//
// std::mt19937_64 is the test-only oracle: the simulator's seeded streams
// (every walk input behind the goldens) were made with it, so the
// in-tree engine must reproduce its stream word for word.

std::vector<std::uint64_t> identity_seeds() {
  std::vector<std::uint64_t> seeds = {0u, 1u, 5489u, std::uint64_t{1} << 32,
                                      ~std::uint64_t{0}};
  for (std::uint64_t i = 0; i < 20; ++i) seeds.push_back(splitmix64(i));
  return seeds;
}

TEST(U53ToDouble, EqualsTheCastOnEdgeAndRandomWords) {
  // The Box-Muller words: (a >> 11) + 1 in [1, 2^53] and b >> 11 in
  // [0, 2^53). Compared as bit patterns -- the contract is identity.
  const auto same_as_cast = [](std::uint64_t v) {
    return std::bit_cast<std::uint64_t>(u53_to_double(v)) ==
           std::bit_cast<std::uint64_t>(static_cast<double>(v));
  };
  constexpr std::uint64_t k1 = 1;
  const std::uint64_t edges[] = {0,
                                 1,
                                 (k1 << 26) - 1,
                                 k1 << 26,
                                 (k1 << 26) + 1,
                                 (k1 << 52) - 1,
                                 k1 << 52,
                                 (k1 << 53) - 1,
                                 (~std::uint64_t{0} >> 11) + 1};
  for (const std::uint64_t v : edges) EXPECT_TRUE(same_as_cast(v)) << v;
  EXPECT_EQ(u53_to_double(k1 << 53), 9007199254740992.0);
  Mt19937_64 engine(2024);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t w = engine();
    ASSERT_TRUE(same_as_cast(w >> 11)) << w;
    ASSERT_TRUE(same_as_cast((w >> 11) + 1)) << w;
  }
}

// --- Philox4x32-10, the particle filters' generator --------------------

TEST(Philox, KnownAnswersFromRandom123) {
  // Random123's kat_vectors for philox4x32 with 10 rounds: counter words,
  // then key words, then the expected output words.
  struct Kat {
    std::uint64_t ctr[4];
    std::uint64_t key[2];
    std::uint64_t out[4];
  };
  const Kat kats[] = {
      {{0, 0, 0, 0}, {0, 0}, {0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}},
      {{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
       {0xffffffff, 0xffffffff},
       {0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}},
      {{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
       {0xa4093822, 0x299f31d0},
       {0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}},
  };
  for (const Kat& k : kats) {
    std::uint64_t w[4] = {k.ctr[0], k.ctr[1], k.ctr[2], k.ctr[3]};
    philox4x32_10(w[0], w[1], w[2], w[3], k.key[0], k.key[1]);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(w[i], k.out[i]) << std::hex << "ctr " << k.ctr[0] << " word "
                                << i;
    }
  }
}

TEST(Philox, BlockPacksCounterKeyAndOutputWords) {
  // Block n under key: counter words (lo32 n, hi32 n, 0, 0), key words
  // (lo32 key, hi32 key), draws a = w1:w0 and b = w3:w2.
  std::uint64_t a = 0, b = 0;
  philox_block(0, 0, a, b);
  EXPECT_EQ(a, 0xe169c58d6627e8d5ull);
  EXPECT_EQ(b, 0x9b00dbd8bc57ac4cull);
  const std::uint64_t keys[] = {0, splitmix64(7), ~std::uint64_t{0}};
  const std::uint64_t blocks[] = {0, 1, 0xfffffffeull, 0xffffffffull,
                                  0x100000000ull, ~std::uint64_t{0}};
  for (const std::uint64_t key : keys) {
    for (const std::uint64_t n : blocks) {
      std::uint64_t w[4] = {n & 0xffffffffull, n >> 32, 0, 0};
      philox4x32_10(w[0], w[1], w[2], w[3], key & 0xffffffffull, key >> 32);
      philox_block(key, n, a, b);
      EXPECT_EQ(a, w[1] << 32 | w[0]) << key << " block " << n;
      EXPECT_EQ(b, w[3] << 32 | w[2]) << key << " block " << n;
    }
  }
}

TEST(Mt19937_64, MatchesStdEngineAcrossSeedsAndTwists) {
  // 1e5 draws cross ~320 twists per seed.
  for (const std::uint64_t seed : identity_seeds()) {
    std::mt19937_64 oracle(seed);
    Mt19937_64 engine(seed);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(engine(), oracle()) << "seed " << seed << " draw " << i;
    }
  }
  std::mt19937_64 oracle;
  Mt19937_64 engine;
  EXPECT_EQ(engine(), oracle()) << "default seed";
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  static_assert(Mt19937_64::state_size == std::mt19937_64::state_size);
}

/// stats::Rng's draws written out over std::mt19937_64.
struct StdBackedRng {
  explicit StdBackedRng(std::uint64_t seed) : engine(seed) {}
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine);
  }
  double normal(double mean, double sd) {
    return std::normal_distribution<double>(mean, sd)(engine);
  }
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(engine); }
  StdBackedRng fork(std::uint64_t id) {
    return StdBackedRng(hash_combine(engine(), id));
  }
  std::mt19937_64 engine;
};

TEST(Mt19937_64, RngDrawsMatchAStdEngineBackedCopy) {
  for (const std::uint64_t seed : identity_seeds()) {
    Rng rng(seed);
    StdBackedRng oracle(seed);
    for (int i = 0; i < 2000; ++i) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit identity.
      ASSERT_EQ(rng.uniform(-3.0, 7.0), oracle.uniform(-3.0, 7.0)) << i;
      ASSERT_EQ(rng.normal(1.5, 0.25), oracle.normal(1.5, 0.25)) << i;
      ASSERT_EQ(rng.uniform_int(-5, 1000), oracle.uniform_int(-5, 1000)) << i;
      ASSERT_EQ(rng.chance(0.3), oracle.chance(0.3)) << i;
      if (i % 100 == 0) {
        Rng child = rng.fork(static_cast<std::uint64_t>(i));
        StdBackedRng oracle_child = oracle.fork(static_cast<std::uint64_t>(i));
        ASSERT_EQ(child.normal(0.0, 1.0), oracle_child.normal(0.0, 1.0));
      }
    }
    // std::shuffle draws through uniform_int_distribution<size_t>.
    std::vector<int> a(257), b(257);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    std::shuffle(a.begin(), a.end(), rng.engine());
    std::shuffle(b.begin(), b.end(), oracle.engine);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace uniloc::stats
