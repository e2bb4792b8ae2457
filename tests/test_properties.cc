// Property-based tests: invariants that must hold across parameter sweeps
// (seeds, venues, distances, thresholds), exercised with TEST_P suites.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>

#include "core/confidence.h"
#include "core/runner.h"
#include "core/trainer.h"
#include "filter/particle_filter.h"
#include "proptest/engine.h"
#include "proptest/oracle.h"
#include "schemes/fingerprint_db.h"
#include "stats/descriptive.h"
#include "stats/gaussian.h"
#include "testing_util.h"

namespace uniloc {
namespace {

// ---------------------------------------------------- geometry properties

class PolylineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolylineProperty, ProjectionOfOnCurvePointIsIdentity) {
  stats::Rng rng(GetParam());
  std::vector<geo::Vec2> pts{{0.0, 0.0}};
  for (int i = 0; i < 6; ++i) {
    pts.push_back(pts.back() + geo::Vec2{rng.uniform(1.0, 20.0),
                                         rng.uniform(-10.0, 10.0)});
  }
  const geo::Polyline line(pts);
  for (double f = 0.0; f <= 1.0; f += 0.05) {
    const double s = f * line.length();
    const geo::Projection proj = line.project(line.point_at(s));
    EXPECT_NEAR(proj.distance, 0.0, 1e-9);
    EXPECT_NEAR(proj.arclen, s, 1e-6);
  }
}

TEST_P(PolylineProperty, ArclenOfVertexMonotone) {
  stats::Rng rng(GetParam() + 100);
  std::vector<geo::Vec2> pts{{0.0, 0.0}};
  for (int i = 0; i < 8; ++i) {
    pts.push_back(pts.back() +
                  geo::Vec2{rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0)});
  }
  const geo::Polyline line(pts);
  for (std::size_t i = 1; i < line.size(); ++i) {
    EXPECT_GT(line.arclen_of_vertex(i), line.arclen_of_vertex(i - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolylineProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --------------------------------------------------- confidence properties

struct ConfidenceCase {
  double mu, sigma, tau;
};

class ConfidenceProperty : public ::testing::TestWithParam<ConfidenceCase> {};

TEST_P(ConfidenceProperty, InUnitInterval) {
  const ConfidenceCase c = GetParam();
  const double conf = core::confidence({c.mu, c.sigma}, c.tau);
  EXPECT_GE(conf, 0.0);
  EXPECT_LE(conf, 1.0);
}

TEST_P(ConfidenceProperty, DecreasesWithPredictedError) {
  const ConfidenceCase c = GetParam();
  EXPECT_GE(core::confidence({c.mu, c.sigma}, c.tau),
            core::confidence({c.mu + 1.0, c.sigma}, c.tau) - 1e-12);
}

TEST_P(ConfidenceProperty, WeightsSumToOneWhenAnyPositive) {
  const ConfidenceCase c = GetParam();
  const double conf = core::confidence({c.mu, c.sigma}, c.tau);
  const std::vector<double> w = core::bma_weights({conf, 0.5, 0.0});
  double sum = 0.0;
  for (double x : w) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(w[2], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfidenceProperty,
    ::testing::Values(ConfidenceCase{1.0, 0.5, 5.0},
                      ConfidenceCase{5.0, 2.0, 5.0},
                      ConfidenceCase{15.0, 8.0, 5.0},
                      ConfidenceCase{0.1, 0.1, 20.0},
                      ConfidenceCase{40.0, 1.0, 5.0},
                      ConfidenceCase{5.0, 20.0, 5.0}));

// ------------------------------------------------ particle-filter property

class PfConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PfConvergence, TracksStraightWalkUnderObservations) {
  // Property: with periodic position observations, the cloud mean stays
  // within a few meters of the truth for any seed.
  filter::ParticleFilter pf(400, GetParam());
  filter::KernelScratch scratch;
  pf.init({0.0, 0.0}, 0.0, 0.5, 0.05, 0.05);
  geo::Vec2 truth{0.0, 0.0};
  for (int step = 1; step <= 100; ++step) {
    truth += {0.7, 0.0};
    pf.predict(0.7, 0.0, 0.1, 0.02, scratch);
    if (step % 5 == 0) {
      pf.reweight([&](const filter::Particle& p) {
        return stats::normal_pdf(geo::distance(p.pos, truth) / 2.0) + 1e-9;
      });
    }
    pf.resample(scratch);
  }
  EXPECT_LT(geo::distance(pf.mean(), truth), 3.0);
}

TEST_P(PfConvergence, WeightsAlwaysNormalizable) {
  filter::ParticleFilter pf(100, GetParam() + 7);
  filter::KernelScratch scratch;
  pf.init({0.0, 0.0}, 0.0, 1.0, 0.1, 0.0);
  stats::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    pf.predict(0.7, rng.normal(0.0, 0.1), 0.1, 0.05, scratch);
    pf.reweight([&](const filter::Particle&) {
      return rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(0.0, 1.0);
    });
    pf.resample(scratch);
    double sum = 0.0;
    for (std::size_t k = 0; k < pf.size(); ++k) sum += pf.weight(k);
    EXPECT_NEAR(sum, 1.0, 1e-6);
    EXPECT_TRUE(std::isfinite(pf.mean().x));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PfConvergence,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------- fingerprinting properties

class DensityProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DensityProperty, CoarserDatabaseNeverBeatsFinerOnAverage) {
  // Property behind the beta1 feature: for any downsampling factor k > 1,
  // mean matching error with the k-downsampled DB >= with the full DB
  // (tolerance for noise).
  const core::Deployment& office = testing_util::office_deployment();
  const schemes::FingerprintDatabase coarse =
      office.wifi_db->downsampled(GetParam(), 1);

  auto mean_err = [&](const schemes::FingerprintDatabase& db) {
    sim::WalkConfig wc;
    wc.seed = 5;
    sim::Walker walker(office.place.get(), office.radio.get(), 0, wc);
    double sum = 0.0;
    int n = 0;
    while (!walker.done()) {
      const sim::SensorFrame f = walker.step(false);
      const auto nn = db.k_nearest(f.wifi, 1);
      if (nn.empty()) continue;
      sum += geo::distance(db.fingerprints()[nn[0].index].pos, f.truth_pos);
      ++n;
    }
    return n > 0 ? sum / n : 1e9;
  };
  EXPECT_GE(mean_err(coarse) + 0.5, mean_err(*office.wifi_db));
}

INSTANTIATE_TEST_SUITE_P(Factors, DensityProperty,
                         ::testing::Values(2, 3, 5, 8));

// --------------------------------------------------- cross-venue pipeline

enum class Venue { kOffice, kOpenSpace, kMall, kCampus };

sim::Place venue_place(Venue v) {
  switch (v) {
    case Venue::kOffice: return sim::office_place(42);
    case Venue::kOpenSpace: return sim::open_space_place(42);
    case Venue::kMall: return sim::mall_place(42);
    case Venue::kCampus: return sim::campus(42);
  }
  return sim::office_place(42);
}

class VenueProperty : public ::testing::TestWithParam<Venue> {
 protected:
  static const core::TrainedModels& models() {
    return testing_util::standard_models(200);
  }
};

TEST_P(VenueProperty, PipelineInvariantsHoldEverywhere) {
  core::Deployment d = core::make_deployment(venue_place(GetParam()),
                                             core::DeploymentOptions{.seed = 3});
  core::Uniloc uniloc = core::make_uniloc(d, models());
  core::RunOptions opts;
  opts.walk.seed = 17;
  const core::RunResult run = core::run_walk(uniloc, d, 0, opts);
  ASSERT_GT(run.epochs.size(), 50u);
  for (const core::EpochRecord& e : run.epochs) {
    // Invariant 1: estimates finite and bounded by the venue scale.
    EXPECT_TRUE(std::isfinite(e.uniloc2_err));
    EXPECT_LT(e.uniloc2_err, 1000.0);
    // Invariant 2: weights form a (sub)distribution aligned with
    // availability.
    double sum = 0.0;
    for (std::size_t i = 0; i < e.weight.size(); ++i) {
      EXPECT_GE(e.weight[i], 0.0);
      if (!e.scheme_available[i]) {
        EXPECT_DOUBLE_EQ(e.weight[i], 0.0);
      }
      sum += e.weight[i];
    }
    EXPECT_TRUE(sum == 0.0 || std::abs(sum - 1.0) < 1e-9);
    // Invariant 3: oracle <= any individual available scheme.
    for (std::size_t i = 0; i < e.scheme_err.size(); ++i) {
      if (!std::isnan(e.scheme_err[i])) {
        EXPECT_LE(e.oracle_err, e.scheme_err[i] + 1e-9);
      }
    }
  }
}

TEST_P(VenueProperty, SomeSchemeIsAlwaysAvailable) {
  core::Deployment d = core::make_deployment(venue_place(GetParam()),
                                             core::DeploymentOptions{.seed = 4});
  core::Uniloc uniloc = core::make_uniloc(d, models());
  core::RunOptions opts;
  opts.walk.seed = 18;
  const core::RunResult run = core::run_walk(uniloc, d, 0, opts);
  for (const core::EpochRecord& e : run.epochs) {
    bool any = false;
    for (bool a : e.scheme_available) any = any || a;
    EXPECT_TRUE(any);  // PDR alone guarantees coverage
  }
}

INSTANTIATE_TEST_SUITE_P(Venues, VenueProperty,
                         ::testing::Values(Venue::kOffice, Venue::kOpenSpace,
                                           Venue::kMall, Venue::kCampus));

// ----------------------------------------------------- radio monotonicity

class RadioDistanceProperty : public ::testing::TestWithParam<double> {};

TEST_P(RadioDistanceProperty, MeanPathRssiDecreasesOverLargeScales) {
  // Shadowing adds local texture, but averaged over many APs the RSSI at
  // distance d must beat the RSSI at 2d.
  sim::Place place = sim::office_place(42);
  const sim::RadioEnvironment radio(&place, sim::RadioParams{},
                                    sim::CellRadioParams{}, 1);
  const double d = GetParam();
  double near_sum = 0.0, far_sum = 0.0;
  int n = 0;
  for (const sim::AccessPoint& ap : place.access_points()) {
    const geo::Vec2 dir{1.0, 0.3};
    const auto near = radio.wifi_mean_rssi(ap, ap.pos + dir.normalized() * d);
    const auto far =
        radio.wifi_mean_rssi(ap, ap.pos + dir.normalized() * (2.0 * d));
    if (near && far) {
      near_sum += *near;
      far_sum += *far;
      ++n;
    }
  }
  if (n >= 3) {
    EXPECT_GT(near_sum / n, far_sum / n);
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, RadioDistanceProperty,
                         ::testing::Values(3.0, 6.0, 10.0, 15.0));

// ------------------------------------------------------- Gaussian duality

// ------------------------------------------------------ chaos properties
//
// Generated chaos via src/proptest: the engine expands a seed into
// random venues, deployments, gaits, fault schedules and crash points,
// and the oracle asserts the global invariants I0-I6, I8 and I9 (the
// paper's arithmetic, proper BMA over available schemes, on-premises
// finite fixes, odometer traffic accounting, no silently lost epochs,
// and crash/restore / worker-count / scalar-kernel / delta-chain
// invisibility -- see src/proptest/oracle.h). Case counts scale with
// UNILOC_PROPTEST_CASES; any failure prints a `UNILOC_REPRO seed=...
// cases=... spec=...` line, shrinks to a minimal spec, and appends it to
// tests/corpus/ -- which is replayed FIRST on every subsequent run.

class ChaosProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static proptest::Verdict oracle(const proptest::CaseSpec& spec) {
    return proptest::run_case(spec, testing_util::standard_models(100));
  }
};

TEST_P(ChaosProperty, GeneratedWorldsHoldInvariants) {
  proptest::EngineConfig cfg;
  cfg.seed = GetParam();
  cfg.cases = 24;  // Per engine seed; UNILOC_PROPTEST_CASES scales it.
  cfg.corpus_path = std::string(UNILOC_CORPUS_DIR) + "/reproducers.jsonl";
  proptest::Engine engine(cfg, &ChaosProperty::oracle);
  const proptest::EngineReport report = engine.run();
  for (const proptest::CaseFailure& f : report.failures) {
    ADD_FAILURE() << f.repro << "\n  first violation: "
                  << f.verdict.summary();
  }
  EXPECT_GT(report.cases_run + report.corpus_replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(EngineSeeds, ChaosProperty,
                         ::testing::Values(11, 22));

// ------------------------------------------------------------- quantiles

class QuantileProperty : public ::testing::TestWithParam<double> {};

TEST_P(QuantileProperty, CdfQuantileRoundTrip) {
  const double x = GetParam();
  EXPECT_NEAR(stats::normal_quantile(stats::normal_cdf(x)), x, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Points, QuantileProperty,
                         ::testing::Values(-3.0, -1.5, -0.2, 0.0, 0.7, 2.2,
                                           3.5));

}  // namespace
}  // namespace uniloc
