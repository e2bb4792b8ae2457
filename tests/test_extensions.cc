// Tests for the extension components: Horus, the A-Loc baseline, the
// grid-based posterior fusion, and the framework's defenses against
// misbehaving user-integrated schemes.
#include <gtest/gtest.h>

#include <limits>

#include "core/aloc_baseline.h"
#include "core/posterior_fusion.h"
#include "core/runner.h"
#include "core/trainer.h"
#include "schemes/horus_scheme.h"
#include "sim/walker.h"
#include "stats/descriptive.h"
#include "testing_util.h"

namespace uniloc {
namespace {

// ------------------------------------------------------------------ Horus

class HorusTest : public ::testing::Test {
 protected:
  const core::Deployment& deployment_ = testing_util::office_deployment();
};

TEST_F(HorusTest, LikelihoodHighestForMatchingFingerprint) {
  schemes::HorusScheme horus(deployment_.wifi_db.get(), {});
  const schemes::Fingerprint& fp = deployment_.wifi_db->fingerprints()[5];
  std::vector<sim::ApReading> scan;
  for (const auto& [id, rssi] : fp.rssi) scan.push_back({id, rssi});
  const double self = horus.log_likelihood(scan, fp);
  // Its own readings beat any other fingerprint.
  for (const schemes::Fingerprint& other :
       deployment_.wifi_db->fingerprints()) {
    EXPECT_LE(horus.log_likelihood(scan, other), self + 1e-9);
  }
  EXPECT_NEAR(self, 0.0, 1e-9);  // exact match: zero log-likelihood
}

TEST_F(HorusTest, LocalizesInOffice) {
  schemes::HorusScheme horus(deployment_.wifi_db.get(), {});
  sim::WalkConfig wc;
  wc.seed = 3;
  sim::Walker walker(deployment_.place.get(), deployment_.radio.get(), 0, wc);
  horus.reset({walker.start_position(), walker.start_heading()});
  std::vector<double> errs;
  while (!walker.done()) {
    const sim::SensorFrame f = walker.step(false);
    const schemes::SchemeOutput out = horus.update(f);
    if (out.available) errs.push_back(geo::distance(out.estimate, f.truth_pos));
  }
  ASSERT_GT(errs.size(), 100u);
  EXPECT_LT(stats::mean(errs), 8.0);
}

TEST_F(HorusTest, UnavailableOnSparseScan) {
  schemes::HorusScheme horus(deployment_.wifi_db.get(), {});
  horus.reset({{0.0, 0.0}, 0.0});
  sim::SensorFrame frame;
  frame.wifi = {{1, -60.0}};  // below min_transmitters = 2
  EXPECT_FALSE(horus.update(frame).available);
}

TEST_F(HorusTest, PosteriorNormalizedAndNearEstimate) {
  schemes::HorusScheme horus(deployment_.wifi_db.get(), {});
  sim::WalkConfig wc;
  wc.seed = 4;
  sim::Walker walker(deployment_.place.get(), deployment_.radio.get(), 0, wc);
  horus.reset({walker.start_position(), walker.start_heading()});
  walker.step();
  const sim::SensorFrame f = walker.step();
  const schemes::SchemeOutput out = horus.update(f);
  ASSERT_TRUE(out.available);
  double total = 0.0;
  for (const schemes::WeightedPoint& wp : out.posterior.support) {
    total += wp.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(horus.family(), schemes::SchemeFamily::kWifiFingerprint);
}

// ------------------------------------------------------------------ A-Loc

schemes::SchemeOutput avail_at(geo::Vec2 p) {
  schemes::SchemeOutput o;
  o.available = true;
  o.estimate = p;
  return o;
}

TEST(ALoc, PicksCheapestMeetingRequirement) {
  // Costs: expensive accurate vs cheap adequate.
  core::ALocSelector aloc({{300.0}, {10.0}}, /*req=*/8.0);
  const std::vector<schemes::SchemeOutput> outs{avail_at({0, 0}),
                                                avail_at({0, 0})};
  const std::vector<stats::Gaussian> pred{{2.0, 1.0}, {6.0, 1.0}};
  EXPECT_EQ(aloc.select(outs, pred), 1);  // both qualify; cheaper wins
}

TEST(ALoc, FallsBackToMostAccurate) {
  core::ALocSelector aloc({{300.0}, {10.0}}, /*req=*/1.0);
  const std::vector<schemes::SchemeOutput> outs{avail_at({0, 0}),
                                                avail_at({0, 0})};
  const std::vector<stats::Gaussian> pred{{2.0, 1.0}, {6.0, 1.0}};
  EXPECT_EQ(aloc.select(outs, pred), 0);  // nothing qualifies: best mu
}

TEST(ALoc, SkipsUnavailable) {
  core::ALocSelector aloc({{10.0}, {300.0}}, 8.0);
  std::vector<schemes::SchemeOutput> outs{avail_at({0, 0}),
                                          avail_at({0, 0})};
  outs[0].available = false;
  const std::vector<stats::Gaussian> pred{{1.0, 1.0}, {2.0, 1.0}};
  EXPECT_EQ(aloc.select(outs, pred), 1);
}

TEST(ALoc, NothingAvailable) {
  core::ALocSelector aloc(core::standard_scheme_costs(), 8.0);
  std::vector<schemes::SchemeOutput> outs(5);
  const std::vector<stats::Gaussian> pred(5, stats::Gaussian{1.0, 1.0});
  EXPECT_EQ(aloc.select(outs, pred), -1);
}

TEST(ALoc, StandardCostsRankGpsMostExpensive) {
  const auto costs = core::standard_scheme_costs();
  ASSERT_EQ(costs.size(), 5u);
  for (std::size_t i = 1; i < costs.size(); ++i) {
    EXPECT_GT(costs[0].power_mw, costs[i].power_mw);
  }
}

// -------------------------------------------------------- posterior grid

TEST(PosteriorFusion, MassSumsToOne) {
  geo::Grid grid(geo::BBox{{0.0, 0.0}, {20.0, 20.0}}, 1.0);
  std::vector<schemes::SchemeOutput> outs{avail_at({5.0, 5.0}),
                                          avail_at({15.0, 15.0})};
  outs[0].posterior = schemes::Posterior::gaussian({5.0, 5.0}, 2.0);
  outs[1].posterior = schemes::Posterior::gaussian({15.0, 15.0}, 2.0);
  const core::FusedPosterior fused =
      core::fuse_posteriors(grid, outs, {0.5, 0.5});
  double total = 0.0;
  for (double m : fused.mass) total += m;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PosteriorFusion, ExpectationIsWeightedMean) {
  geo::Grid grid(geo::BBox{{0.0, 0.0}, {20.0, 20.0}}, 0.5);
  std::vector<schemes::SchemeOutput> outs{avail_at({5.0, 10.0}),
                                          avail_at({15.0, 10.0})};
  const core::FusedPosterior fused =
      core::fuse_posteriors(grid, outs, {0.75, 0.25});
  EXPECT_NEAR(fused.expectation().x, 7.5, 0.5);
  EXPECT_NEAR(fused.expectation().y, 10.0, 0.5);
}

TEST(PosteriorFusion, MapFollowsDominantScheme) {
  geo::Grid grid(geo::BBox{{0.0, 0.0}, {20.0, 20.0}}, 1.0);
  std::vector<schemes::SchemeOutput> outs{avail_at({5.0, 5.0}),
                                          avail_at({15.0, 15.0})};
  outs[0].posterior = schemes::Posterior::gaussian({5.0, 5.0}, 1.5);
  outs[1].posterior = schemes::Posterior::gaussian({15.0, 15.0}, 1.5);
  const core::FusedPosterior fused =
      core::fuse_posteriors(grid, outs, {0.9, 0.1});
  EXPECT_LT(geo::distance(fused.map_estimate(), {5.0, 5.0}), 2.0);
}

TEST(PosteriorFusion, ZeroWeightsGiveUniform) {
  geo::Grid grid(geo::BBox{{0.0, 0.0}, {10.0, 10.0}}, 1.0);
  const core::FusedPosterior fused = core::fuse_posteriors(grid, {}, {});
  const double u = 1.0 / static_cast<double>(grid.num_cells());
  for (double m : fused.mass) EXPECT_NEAR(m, u, 1e-12);
  // Uniform distribution has maximal entropy: log(N).
  EXPECT_NEAR(fused.entropy(),
              std::log(static_cast<double>(grid.num_cells())), 1e-9);
}

TEST(PosteriorFusion, EntropyLowerWhenConcentrated) {
  geo::Grid grid(geo::BBox{{0.0, 0.0}, {20.0, 20.0}}, 1.0);
  std::vector<schemes::SchemeOutput> sharp{avail_at({5.0, 5.0})};
  sharp[0].posterior = schemes::Posterior::gaussian({5.0, 5.0}, 1.0);
  std::vector<schemes::SchemeOutput> wide{avail_at({5.0, 5.0})};
  wide[0].posterior = schemes::Posterior::gaussian({5.0, 5.0}, 5.0);
  const double h_sharp =
      core::fuse_posteriors(grid, sharp, {1.0}).entropy();
  const double h_wide = core::fuse_posteriors(grid, wide, {1.0}).entropy();
  EXPECT_LT(h_sharp, h_wide);
}

TEST(PosteriorFusion, MassWithinRadius) {
  geo::Grid grid(geo::BBox{{0.0, 0.0}, {20.0, 20.0}}, 1.0);
  std::vector<schemes::SchemeOutput> outs{avail_at({10.0, 10.0})};
  outs[0].posterior = schemes::Posterior::gaussian({10.0, 10.0}, 1.5);
  const core::FusedPosterior fused = core::fuse_posteriors(grid, outs, {1.0});
  EXPECT_GT(fused.mass_within({10.0, 10.0}, 5.0), 0.9);
  EXPECT_LT(fused.mass_within({0.0, 0.0}, 2.0), 0.05);
}

// ----------------------------------------------------- garbage hardening

/// A hostile scheme that reports NaN positions.
class NanScheme final : public schemes::LocalizationScheme {
 public:
  std::string name() const override { return "NaN"; }
  schemes::SchemeFamily family() const override {
    return schemes::SchemeFamily::kOther;
  }
  void reset(const schemes::StartCondition&) override {}
  void update_into(const sim::SensorFrame&,
                   schemes::SchemeOutput& out) override {
    out.available = true;
    out.estimate = {std::numeric_limits<double>::quiet_NaN(), 0.0};
    out.posterior = schemes::Posterior::point(out.estimate);
  }
};

TEST(Hardening, NanSchemeIsQuarantined) {
  const core::TrainedModels& models = testing_util::standard_models(100);
  const core::Deployment& office = testing_util::office_deployment();
  core::Uniloc uniloc = core::make_uniloc(office, models);
  uniloc.add_scheme(std::make_unique<NanScheme>(),
                    core::ErrorModel::constant(1.0, 1.0));

  core::RunOptions opts;
  opts.walk.seed = 9;
  const core::RunResult run = core::run_walk(uniloc, office, 0, opts);
  for (const core::EpochRecord& e : run.epochs) {
    EXPECT_TRUE(std::isfinite(e.uniloc1_err));
    EXPECT_TRUE(std::isfinite(e.uniloc2_err));
    // The hostile scheme must never be selected or weighted.
    EXPECT_FALSE(e.scheme_available.back());
    EXPECT_DOUBLE_EQ(e.weight.back(), 0.0);
  }
}

}  // namespace
}  // namespace uniloc
