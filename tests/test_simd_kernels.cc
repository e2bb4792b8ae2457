// Vectorization-aware differential tier, kernel level (DESIGN.md §16).
//
// The SIMD kernels promise BIT-IDENTITY with their scalar reference
// paths, not epsilon-closeness. Every suite here compares the vector
// path (stats::ScopedSimd on) against either the scalar fallback
// (ScopedSimd off) or a naive re-derivation of the math, element by
// element with EXPECT bitwise equality -- including the awkward shapes a
// lane-based kernel gets wrong first: N = 1, SIMD_WIDTH +/- 1 tails,
// denormal inputs, +/-inf readings, and all-zero weight vectors.
//
// The deterministic transcendentals (stats/vecmath.h) get their own
// accuracy suite against libm: they are NOT required to match libm bit
// for bit (that is the whole point -- libm is not reproducible across
// builds), only to be accurate to a few ulp and to honor IEEE limits.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "filter/particle_filter.h"
#include "schemes/fingerprint_db.h"
#include "sim/builders.h"
#include "stats/gaussian.h"
#include "stats/simd.h"
#include "stats/vecmath.h"

namespace uniloc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

// The awkward particle/fingerprint counts: scalar, below/at/above one
// 4-lane AVX2 vector, below/at/above two vectors.
const std::size_t kTailSizes[] = {1, 3, 4, 5, 7, 8, 9};

double rel_err(double got, double want) {
  if (got == want) return 0.0;
  return std::abs(got - want) / std::max(std::abs(want), kDenormMin);
}

// ---------------------------------------------------------------- det math

TEST(DetExp, MatchesLibmToAFewUlp) {
  // Sweep the argument ranges the pipeline produces: normal_pdf feeds
  // -0.5*z^2 (always <= 0), the fusion RSSI weight feeds -(d - best)/scale
  // (<= 0), the map constraint -0.5*z^2. Positive args for completeness.
  for (double x = -700.0; x <= 700.0; x += 0.37) {
    EXPECT_LT(rel_err(stats::det_exp(x), std::exp(x)), 1e-13)
        << "x = " << x;
  }
  for (double x = -40.0; x <= 40.0; x += 0.0113) {
    EXPECT_LT(rel_err(stats::det_exp(x), std::exp(x)), 1e-14)
        << "x = " << x;
  }
}

TEST(DetExp, HonorsIeeeLimits) {
  EXPECT_EQ(stats::det_exp(0.0), 1.0);
  EXPECT_EQ(stats::det_exp(-0.0), 1.0);
  EXPECT_EQ(stats::det_exp(kInf), kInf);
  EXPECT_EQ(stats::det_exp(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(stats::det_exp(kNaN)));
  // Overflow pins to +inf exactly where libm overflows.
  EXPECT_EQ(stats::det_exp(710.0), kInf);
  EXPECT_EQ(stats::det_exp(1e308), kInf);
  // Deep underflow is exactly zero...
  EXPECT_EQ(stats::det_exp(-746.0), 0.0);
  EXPECT_EQ(stats::det_exp(-1e308), 0.0);
  // ...and the gradual-underflow band produces real subnormals.
  const double sub = stats::det_exp(-744.0);
  EXPECT_GT(sub, 0.0);
  EXPECT_LT(sub, std::numeric_limits<double>::min());
  EXPECT_LT(rel_err(sub, std::exp(-744.0)), 1e-10);
}

TEST(DetExp, DenormalArgumentsAreExact) {
  // exp(x) rounds to 1.0 for |x| below 2^-53; a denormal argument is far
  // below that.
  EXPECT_EQ(stats::det_exp(kDenormMin), 1.0);
  EXPECT_EQ(stats::det_exp(-kDenormMin), 1.0);
}

TEST(DetSincos, MatchesLibmToAFewUlp) {
  // Particle headings are wrap_angle()d into (-pi, pi]; give the suite
  // margin beyond that.
  for (double x = -10.0; x <= 10.0; x += 0.0071) {
    double s, c;
    stats::det_sincos(x, s, c);
    EXPECT_LT(std::abs(s - std::sin(x)), 1e-15) << "x = " << x;
    EXPECT_LT(std::abs(c - std::cos(x)), 1e-15) << "x = " << x;
  }
}

TEST(DetLog, MatchesLibmToAFewUlp) {
  // The Box-Muller uniforms live in [2^-53, 1]; sweep that range densely
  // plus general positives for completeness.
  for (double x = 1e-300; x < 1.0; x *= 1.07) {
    EXPECT_LT(rel_err(stats::det_log(x), std::log(x)), 1e-13) << "x = " << x;
  }
  for (double x = 0.001; x <= 1000.0; x *= 1.0037) {
    EXPECT_LT(std::abs(stats::det_log(x) - std::log(x)),
              1e-14 * std::max(1.0, std::abs(std::log(x))))
        << "x = " << x;
  }
  EXPECT_EQ(stats::det_log(1.0), 0.0);
}

TEST(DetNormalPair, IsAPureFunctionOfTheWordsWithSaneMoments) {
  // det_normal_pair(a, b) must be deterministic (the scalar and vector
  // predict paths call it independently on the same staged words) and
  // must actually synthesize a standard normal: mean ~ 0, var ~ 1 over a
  // large fixed-seed sample.
  std::mt19937_64 eng(12345);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kPairs = 50000;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t a = eng();
    const std::uint64_t b = eng();
    double z0, z1, w0, w1;
    stats::det_normal_pair(a, b, z0, z1);
    stats::det_normal_pair(a, b, w0, w1);
    ASSERT_EQ(z0, w0);
    ASSERT_EQ(z1, w1);
    sum += z0 + z1;
    sum2 += z0 * z0 + z1 * z1;
  }
  const double n = 2.0 * kPairs;
  EXPECT_LT(std::abs(sum / n), 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(DetNormalPair, ExtremeWordsStayFinite) {
  // a = 0 maps u1 to 2^-53 (the log argument must never hit zero); the
  // all-ones word maps u1 to exactly 1.0 (log = 0, both outputs 0 times
  // the angle factors).
  double z0, z1;
  stats::det_normal_pair(0, 0, z0, z1);
  EXPECT_TRUE(std::isfinite(z0));
  EXPECT_TRUE(std::isfinite(z1));
  EXPECT_LT(std::hypot(z0, z1), 9.0);  // sqrt(2 * 53 * ln 2) ~ 8.57
  stats::det_normal_pair(~0ULL, ~0ULL, z0, z1);
  EXPECT_TRUE(std::isfinite(z0));
  EXPECT_TRUE(std::isfinite(z1));
  EXPECT_EQ(std::hypot(z0, z1), 0.0);  // u1 == 1.0 -> r == 0 exactly.
}

TEST(DetSincos, EdgeCases) {
  double s, c;
  stats::det_sincos(0.0, s, c);
  EXPECT_EQ(s, 0.0);
  EXPECT_EQ(c, 1.0);
  stats::det_sincos(kNaN, s, c);
  EXPECT_TRUE(std::isnan(s));
  EXPECT_TRUE(std::isnan(c));
  stats::det_sincos(kDenormMin, s, c);
  EXPECT_EQ(s, kDenormMin);  // sin(x) ~= x to 1 ulp at denormal x.
  EXPECT_EQ(c, 1.0);
}

// ----------------------------------------------------- particle predict

/// The filter's whole state, generator included: its lossless record.
std::vector<std::uint8_t> filter_state(const filter::ParticleFilter& f) {
  offload::ByteWriter w;
  f.snapshot_into(w);
  return w.take();
}

// Two filters, same seed, same call sequence -- one vectorized, one on
// the scalar fallback. The predict contract says the SoA state stays bit
// identical (same Philox blocks, same det_sincos, same expression order).
TEST(PredictKernel, VectorEqualsScalarAtEveryTailSize) {
  for (const std::size_t n : kTailSizes) {
    filter::ParticleFilter vec(n, /*seed=*/77);
    filter::ParticleFilter ref(n, /*seed=*/77);
    filter::KernelScratch scratch;
    {
      const stats::ScopedSimd on(true);
      vec.init({3.0, 4.0}, 0.7, 1.0, 0.3, 0.05);
      for (int step = 0; step < 20; ++step) {
        vec.predict(0.7, 0.1 * step, 0.07, 0.12, scratch);
      }
    }
    {
      const stats::ScopedSimd off(false);
      ref.init({3.0, 4.0}, 0.7, 1.0, 0.3, 0.05);
      for (int step = 0; step < 20; ++step) {
        ref.predict(0.7, 0.1 * step, 0.07, 0.12, scratch);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(vec.pos(i).x, ref.pos(i).x) << "n=" << n << " i=" << i;
      EXPECT_EQ(vec.pos(i).y, ref.pos(i).y) << "n=" << n << " i=" << i;
      EXPECT_EQ(vec.heading(i), ref.heading(i)) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(filter_state(vec), filter_state(ref)) << "n=" << n;
  }
}

// Each lane splits its block index into the counter words lo32 and
// hi32. Start the counter just below 2^32 so the lanes of one predict
// straddle the carry into the high word, at every tail size.
TEST(PredictKernel, VectorEqualsScalarAcrossTheCounterCarry) {
  for (const std::size_t n : kTailSizes) {
    filter::ParticleFilter seeded(n, /*seed=*/13);
    seeded.init({1.0, -2.0}, 0.4, 1.0, 0.3, 0.05);
    std::vector<std::uint8_t> bytes = filter_state(seeded);
    const std::uint64_t ctr = (std::uint64_t{1} << 32) - 2;
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[bytes.size() - 8 + b] = static_cast<std::uint8_t>(ctr >> (8 * b));
    }
    filter::ParticleFilter vec(n, /*seed=*/0);
    filter::ParticleFilter ref(n, /*seed=*/0);
    offload::ByteReader rv(bytes), rr(bytes);
    ASSERT_TRUE(vec.restore_from(rv));
    ASSERT_TRUE(ref.restore_from(rr));
    filter::KernelScratch scratch;
    for (int step = 0; step < 3; ++step) {
      {
        const stats::ScopedSimd on(true);
        vec.predict(0.7, 0.2, 0.07, 0.12, scratch);
      }
      {
        const stats::ScopedSimd off(false);
        ref.predict(0.7, 0.2, 0.07, 0.12, scratch);
      }
    }
    EXPECT_EQ(filter_state(vec), filter_state(ref)) << "n=" << n;
  }
}

// Turns that leave (-2pi, 2pi): the vector path wraps in-range lanes
// with two selects and hands the rest -- huge, infinite and NaN headings
// -- to geo::wrap_angle. Those fallback lanes must land on the scalar
// path's bits too, at every tail size and on either side of a vector.
TEST(PredictKernel, WrapFallbackLanesEqualScalar) {
  const double turns[] = {7.0, -7.0, 1e6, -1e6, kInf, -kInf};
  for (const std::size_t n : kTailSizes) {
    for (const double turn : turns) {
      filter::ParticleFilter vec(n, /*seed=*/91);
      filter::ParticleFilter ref(n, /*seed=*/91);
      filter::KernelScratch scratch;
      // Alternate the wild turn with small ones so finite headings also
      // come back into range and some lanes take each branch.
      const auto walk = [&](filter::ParticleFilter& f) {
        f.init({0.0, 0.0}, 3.0, 0.5, 0.5, 0.05);
        for (int step = 0; step < 6; ++step) {
          f.predict(0.7, step % 2 == 0 ? turn : 0.3, 0.07, 0.4, scratch);
        }
      };
      {
        const stats::ScopedSimd on(true);
        walk(vec);
      }
      {
        const stats::ScopedSimd off(false);
        walk(ref);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
        EXPECT_EQ(bits(vec.heading(i)), bits(ref.heading(i)))
            << "n=" << n << " turn=" << turn << " i=" << i;
        EXPECT_EQ(bits(vec.pos(i).x), bits(ref.pos(i).x))
            << "n=" << n << " turn=" << turn << " i=" << i;
        EXPECT_EQ(bits(vec.pos(i).y), bits(ref.pos(i).y))
            << "n=" << n << " turn=" << turn << " i=" << i;
      }
    }
  }
}

TEST(PredictKernel, ZeroStepAndZeroNoiseIsStationaryInX) {
  // Degenerate parameters: zero step length and zero noise must leave
  // positions exactly in place in both modes (std::max(0.0, 0.0) path).
  for (const bool simd : {true, false}) {
    const stats::ScopedSimd mode(simd);
    filter::ParticleFilter f(5, /*seed=*/3);
    filter::KernelScratch scratch;
    f.init({1.0, 2.0}, 0.0, 0.0, 0.0, 0.0);
    f.predict(0.0, 0.0, 0.0, 0.0, scratch);
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(f.pos(i).x, 1.0);
      EXPECT_EQ(f.pos(i).y, 2.0);
    }
  }
}

// ----------------------------------------------------- reweight commit

TEST(ReweightArray, MatchesLambdaReweightBitwise) {
  for (const std::size_t n : kTailSizes) {
    filter::ParticleFilter a(n, /*seed=*/11);
    filter::ParticleFilter b(n, /*seed=*/11);
    a.init({0.0, 0.0}, 0.0, 2.0, 0.5, 0.1);
    b.init({0.0, 0.0}, 0.0, 2.0, 0.5, 0.1);
    std::vector<double> like(n);
    for (std::size_t i = 0; i < n; ++i) {
      like[i] = 0.25 + 0.13 * static_cast<double>(i * i % 7);
    }
    a.reweight_array(like.data());
    std::size_t idx = 0;
    b.reweight([&](const filter::Particle&) { return like[idx++]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a.weight(i), b.weight(i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ReweightArray, AllZeroLikelihoodsResetToUniform) {
  filter::ParticleFilter f(7, /*seed=*/5);
  f.init({0.0, 0.0}, 0.0, 1.0, 0.2, 0.1);
  const std::vector<double> zeros(7, 0.0);
  f.reweight_array(zeros.data());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f.weight(i), 1.0 / 7.0);
  }
  // The degenerate cloud resamples without collapsing or crashing.
  filter::KernelScratch scratch;
  f.resample(scratch, 1.0);
  EXPECT_NEAR(f.effective_sample_size(), 7.0, 1e-9);
}

TEST(ReweightArray, DenormalLikelihoodsSurviveNormalization) {
  // Weights can underflow toward denormals in long low-likelihood
  // stretches; the commit step must renormalize, not zero them out.
  filter::ParticleFilter f(4, /*seed=*/9);
  f.init({0.0, 0.0}, 0.0, 1.0, 0.2, 0.1);
  const std::vector<double> tiny(4, kDenormMin);
  f.reweight_array(tiny.data());
  double sum = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) sum += f.weight(i);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(f.weight(0), f.weight(1));
}

// ------------------------------------------------ systematic resampling

// Fixed-seed statistical check: systematic resampling guarantees the
// copy count of particle i is within 1 of N * w_i (the N probes are
// spaced exactly 1/N apart, so an interval of mass w_i contains either
// floor(N*w_i) or ceil(N*w_i) probes). 10k particles, weights ramping
// linearly, positions used as identity tags.
TEST(Resample, SystematicCopyCountsTrackWeightsWithinOne) {
  const std::size_t n = 10000;
  // Ancestors are tagged by their x coordinate: a wide continuous init
  // spread makes ties measure-zero (and the fixed seed makes the check
  // reproducible). Weight particle i proportional to (i + 1).
  filter::ParticleFilter f(n, /*seed=*/99);
  f.init({0.0, 0.0}, 0.0, 1000.0, 0.0, 0.0);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = f.pos(i).x;
  const double total = static_cast<double>(n) * (n + 1) / 2.0;
  std::vector<double> like(n);
  for (std::size_t i = 0; i < n; ++i) like[i] = static_cast<double>(i + 1);
  f.reweight_array(like.data());
  filter::KernelScratch scratch;
  f.resample(scratch, 1.0);

  // Map each survivor back to its ancestor and count the copies.
  std::unordered_map<double, std::size_t> index_of;
  index_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index_of.emplace(xs[i], i);
  std::vector<std::size_t> copies(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto it = index_of.find(f.pos(k).x);
    ASSERT_NE(it, index_of.end());
    copies[it->second]++;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = static_cast<double>(n) * like[i] / total;
    EXPECT_LE(std::abs(static_cast<double>(copies[i]) - expected), 1.0)
        << "ancestor " << i;
  }
}

// ------------------------------------------------- fingerprint scoring

class ScoreBatchTest : public ::testing::Test {
 protected:
  ScoreBatchTest()
      : place_(sim::office_place(42)),
        radio_(&place_, sim::RadioParams{}, sim::CellRadioParams{}, 42),
        db_(schemes::FingerprintDatabase::build(
            place_, radio_, schemes::FingerprintDatabase::Source::kWifi, 3.0,
            12.0, 7)) {}

  /// Naive oracle: rssi_distance per fingerprint, no cache, no lanes.
  std::vector<double> naive(const schemes::FingerprintDatabase& db,
                            const std::vector<sim::ApReading>& scan) {
    std::vector<double> out(db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      out[i] = schemes::rssi_distance(scan, db.fingerprints()[i],
                                      db.floor_dbm());
    }
    return out;
  }

  /// The cached vector path (SIMD on) against the naive oracle and the
  /// scalar cached path (SIMD off), bitwise, NaN-aware.
  void expect_all_equal(schemes::FingerprintDatabase& db,
                        const std::vector<sim::ApReading>& scan) {
    db.prebuild_likelihood_cache();
    const std::vector<double> want = naive(db, scan);
    schemes::ScanScratch scratch;
    std::vector<double> vec, scal;
    {
      const stats::ScopedSimd on(true);
      db.all_distances_into(scan, scratch, vec);
    }
    {
      const stats::ScopedSimd off(false);
      db.all_distances_into(scan, scratch, scal);
    }
    ASSERT_EQ(vec.size(), want.size());
    ASSERT_EQ(scal.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (std::isnan(want[i])) {
        EXPECT_TRUE(std::isnan(vec[i])) << "fp " << i;
        EXPECT_TRUE(std::isnan(scal[i])) << "fp " << i;
      } else {
        EXPECT_EQ(vec[i], want[i]) << "fp " << i;
        EXPECT_EQ(scal[i], want[i]) << "fp " << i;
      }
    }
  }

  sim::Place place_;
  sim::RadioEnvironment radio_;
  schemes::FingerprintDatabase db_;
};

TEST_F(ScoreBatchTest, MatchesNaiveOracleOnRealScans) {
  stats::Rng rng(17);
  for (int q = 0; q < 16; ++q) {
    const geo::Vec2 pos = place_.walkways()[0].line.point_at(2.0 + 9.0 * q);
    expect_all_equal(db_, radio_.wifi_scan(pos, rng));
  }
}

TEST_F(ScoreBatchTest, MatchesNaiveOracleAtLaneTailSizes) {
  // Downsample the database to every awkward lane count: the epilogue
  // and the masked fingerprint-only pass must handle 1..9 fingerprints
  // exactly like 69.
  stats::Rng rng(23);
  const auto scan = radio_.wifi_scan({20.0, 5.0}, rng);
  for (const std::size_t want : kTailSizes) {
    const std::size_t keep = db_.size() / want;
    ASSERT_GT(keep, 0u);
    schemes::FingerprintDatabase small = db_.downsampled(keep, 5);
    if (small.empty()) continue;
    expect_all_equal(small, scan);
  }
}

TEST_F(ScoreBatchTest, InfiniteScanReadingsStayBitIdentical) {
  // A hostile scan with +/-inf RSSI: the masked kernel may only multiply
  // *fingerprint-side* terms (which the cache asserts finite); scan-side
  // infinities flow through both paths to +inf distances identically.
  stats::Rng rng(29);
  std::vector<sim::ApReading> scan = radio_.wifi_scan({25.0, 5.0}, rng);
  ASSERT_GE(scan.size(), 2u);
  scan[0].rssi_dbm = kInf;
  scan[1].rssi_dbm = -kInf;
  expect_all_equal(db_, scan);
}

TEST_F(ScoreBatchTest, DenormalScanReadingsStayBitIdentical) {
  stats::Rng rng(31);
  std::vector<sim::ApReading> scan = radio_.wifi_scan({15.0, 5.0}, rng);
  ASSERT_GE(scan.size(), 1u);
  scan[0].rssi_dbm = kDenormMin;
  expect_all_equal(db_, scan);
}

TEST_F(ScoreBatchTest, UnknownTransmittersBroadcastIdentically) {
  // Readings from AP ids the database never heard take the col < 0
  // broadcast path in the kernel.
  std::vector<sim::ApReading> scan = {{999999, -60.0}, {999998, -70.0}};
  expect_all_equal(db_, scan);
}

TEST_F(ScoreBatchTest, EmptyScanIsTheSharedNothingSentinel) {
  db_.prebuild_likelihood_cache();
  schemes::ScanScratch scratch;
  std::vector<double> out;
  const stats::ScopedSimd on(true);
  db_.all_distances_into({}, scratch, out);
  for (const double d : out) {
    EXPECT_EQ(d, std::numeric_limits<double>::max());
  }
}

// normal_pdf sits in the middle of both fusion reweight paths; pin that
// it is det_exp-based (bit-equal to the composition, not merely close).
TEST(NormalPdf, IsDetExpComposition) {
  for (double z = -12.0; z <= 12.0; z += 0.0317) {
    const double want = 0.3989422804014327 * stats::det_exp(-0.5 * z * z);
    EXPECT_EQ(stats::normal_pdf(z), want) << "z = " << z;
  }
}

}  // namespace
}  // namespace uniloc
