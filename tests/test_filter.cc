#include <gtest/gtest.h>

#include <cmath>

#include "filter/kalman1d.h"
#include "filter/location_predictor.h"
#include "filter/particle_filter.h"
#include "stats/rng.h"

namespace uniloc::filter {
namespace {

// ---------------------------------------------------------------- particles

TEST(ParticleFilter, InitClustersAroundStart) {
  ParticleFilter pf(500, 1);
  pf.init({10.0, 20.0}, 0.5, 1.0, 0.1, 0.05);
  const geo::Vec2 m = pf.mean();
  EXPECT_NEAR(m.x, 10.0, 0.3);
  EXPECT_NEAR(m.y, 20.0, 0.3);
  EXPECT_NEAR(pf.mean_heading(), 0.5, 0.05);
  EXPECT_LT(pf.spread(), 2.5);
}

TEST(ParticleFilter, PredictMovesCloudAlongHeading) {
  ParticleFilter pf(500, 2);
  KernelScratch scratch;
  pf.init({0.0, 0.0}, 0.0, 0.1, 0.01, 0.0);
  for (int i = 0; i < 10; ++i) pf.predict(1.0, 0.0, 0.01, 0.005, scratch);
  const geo::Vec2 m = pf.mean();
  EXPECT_NEAR(m.x, 10.0, 0.5);
  EXPECT_NEAR(m.y, 0.0, 0.5);
}

TEST(ParticleFilter, PredictTurns) {
  ParticleFilter pf(500, 3);
  KernelScratch scratch;
  pf.init({0.0, 0.0}, 0.0, 0.01, 0.001, 0.0);
  // Quarter turn over 10 steps, then walk straight up.
  for (int i = 0; i < 10; ++i) {
    pf.predict(0.0, std::numbers::pi / 20.0, 0.0, 0.001, scratch);
  }
  for (int i = 0; i < 10; ++i) pf.predict(1.0, 0.0, 0.01, 0.001, scratch);
  const geo::Vec2 m = pf.mean();
  EXPECT_NEAR(m.x, 0.0, 0.8);
  EXPECT_NEAR(m.y, 10.0, 0.8);
}

TEST(ParticleFilter, ReweightShiftsMean) {
  ParticleFilter pf(2000, 4);
  pf.init({0.0, 0.0}, 0.0, 5.0, 0.1, 0.0);
  // Favor particles on the +x side.
  pf.reweight([](const Particle& p) { return p.pos.x > 0.0 ? 1.0 : 0.01; });
  EXPECT_GT(pf.mean().x, 1.0);
}

TEST(ParticleFilter, ZeroLikelihoodEverywhereResetsUniform) {
  ParticleFilter pf(100, 5);
  pf.init({0.0, 0.0}, 0.0, 1.0, 0.1, 0.0);
  pf.reweight([](const Particle&) { return 0.0; });
  // Weights reset to uniform rather than NaN.
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_NEAR(pf.weight(i), 1.0 / 100.0, 1e-12);
  }
}

TEST(ParticleFilter, EffectiveSampleSize) {
  ParticleFilter pf(100, 6);
  pf.init({0.0, 0.0}, 0.0, 1.0, 0.1, 0.0);
  EXPECT_NEAR(pf.effective_sample_size(), 100.0, 1e-6);
  // Concentrate all weight in one particle.
  bool first = true;
  pf.reweight([&first](const Particle&) {
    const double w = first ? 1.0 : 1e-12;
    first = false;
    return w;
  });
  EXPECT_LT(pf.effective_sample_size(), 2.0);
}

TEST(ParticleFilter, ResampleRestoresEss) {
  ParticleFilter pf(200, 7);
  pf.init({0.0, 0.0}, 0.0, 1.0, 0.1, 0.0);
  pf.reweight([](const Particle& p) {
    return std::exp(-p.pos.norm2());  // sharply peaked
  });
  KernelScratch scratch;
  pf.resample(scratch, 1.0);
  EXPECT_NEAR(pf.effective_sample_size(), 200.0, 1e-6);
  EXPECT_EQ(pf.size(), 200u);
}

TEST(ParticleFilter, ResampleSkipsWhenEssHigh) {
  ParticleFilter pf(100, 8);
  pf.init({0.0, 0.0}, 0.0, 1.0, 0.1, 0.0);
  const geo::Vec2 before = pf.pos(0);
  KernelScratch scratch;
  pf.resample(scratch, 0.5);  // uniform weights: ESS = N, no resample
  EXPECT_EQ(pf.pos(0), before);
}

TEST(ParticleFilter, ResamplePreservesMean) {
  ParticleFilter pf(3000, 9);
  pf.init({5.0, -2.0}, 0.0, 2.0, 0.1, 0.0);
  pf.reweight([](const Particle& p) {
    return std::exp(-0.1 * p.pos.norm2());
  });
  const geo::Vec2 before = pf.mean();
  KernelScratch scratch;
  pf.resample(scratch, 1.0);
  const geo::Vec2 after = pf.mean();
  EXPECT_NEAR(before.x, after.x, 0.3);
  EXPECT_NEAR(before.y, after.y, 0.3);
}

TEST(ParticleFilter, StepScalePersonalization) {
  ParticleFilter pf(2000, 10);
  KernelScratch scratch;
  pf.init({0.0, 0.0}, 0.0, 0.01, 0.001, 0.2);
  // Particles with larger step_scale end up further along x; selecting for
  // them mimics the gait-personalization adaptation.
  for (int i = 0; i < 20; ++i) pf.predict(1.0, 0.0, 0.0, 0.0, scratch);
  pf.reweight([](const Particle& p) { return p.pos.x > 22.0 ? 1.0 : 1e-9; });
  pf.resample(scratch, 1.0);
  double mean_scale = 0.0;
  for (std::size_t i = 0; i < pf.size(); ++i) mean_scale += pf.step_scale(i);
  mean_scale /= static_cast<double>(pf.size());
  EXPECT_GT(mean_scale, 1.05);
}

// ------------------------------------------------------------------ kalman

TEST(Kalman1d, ConvergesToConstantSignal) {
  Kalman1d k(0.0, 10.0, 0.01, 1.0);
  for (int i = 0; i < 100; ++i) k.update(5.0);
  EXPECT_NEAR(k.estimate(), 5.0, 0.05);
  EXPECT_LT(k.sd(), 1.0);
}

TEST(Kalman1d, TracksDrift) {
  Kalman1d k(0.0, 1.0, 0.5, 1.0);
  double target = 0.0;
  for (int i = 0; i < 200; ++i) {
    target += 0.05;
    k.update(target);
  }
  EXPECT_NEAR(k.estimate(), target, 0.5);
}

TEST(Kalman1d, SmoothsNoise) {
  stats::Rng rng(3);
  Kalman1d k(0.0, 5.0, 0.01, 2.0);
  for (int i = 0; i < 500; ++i) k.update(3.0 + rng.normal(0.0, 2.0));
  EXPECT_NEAR(k.estimate(), 3.0, 0.4);
}

// -------------------------------------------------------------- predictor

TEST(LocationPredictor, EmptyBeforeFirstObservation) {
  LocationPredictor p;
  EXPECT_FALSE(p.predict().has_value());
  EXPECT_DOUBLE_EQ(p.uncertainty(), 0.0);
}

TEST(LocationPredictor, TracksStationaryObservations) {
  LocationPredictor p;
  for (int i = 0; i < 5; ++i) p.observe({10.0, 20.0});
  const auto pred = p.predict();
  ASSERT_TRUE(pred.has_value());
  EXPECT_NEAR(pred->x, 10.0, 1.5);
  EXPECT_NEAR(pred->y, 20.0, 1.5);
}

TEST(LocationPredictor, ExtrapolatesMotion) {
  LocationPredictor p;
  // Walk along +x at 1 m per observation.
  for (int i = 0; i <= 10; ++i) p.observe({static_cast<double>(i), 0.0});
  const auto pred = p.predict();
  ASSERT_TRUE(pred.has_value());
  EXPECT_GT(pred->x, 8.0);
}

TEST(LocationPredictor, RobustToOneOutlier) {
  LocationPredictor p;
  for (int i = 0; i <= 10; ++i) p.observe({static_cast<double>(i), 0.0});
  p.observe({50.0, 50.0});  // wild observation
  const auto pred = p.predict();
  ASSERT_TRUE(pred.has_value());
  // The motion prior keeps the prediction near the trajectory.
  EXPECT_LT(geo::distance(*pred, {11.0, 0.0}), 15.0);
}

TEST(LocationPredictor, ResetClearsState) {
  LocationPredictor p;
  p.observe({1.0, 2.0});
  p.reset();
  EXPECT_FALSE(p.predict().has_value());
}

}  // namespace
}  // namespace uniloc::filter
