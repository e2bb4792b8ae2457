// Integrating a new localization scheme -- the paper's "general" design
// feature: "Any localization scheme can be easily integrated into UniLoc".
//
// We invent a scheme UniLoc has never seen: magnetic-fingerprint matching
// along the walkway (FOLLOWME-style [18], using the ambient magnetic
// fluctuation as a 1-D signature). Integration cost is exactly:
//   1. implement LocalizationScheme (update_into() -> estimate +
//      posterior),
//   2. collect (features, error) tuples once and fit its error model,
//   3. uniloc.add_scheme(std::move(scheme), model).
// No UniLoc internals are touched.
#include <cstdio>

#include "core/runner.h"
#include "core/trainer.h"
#include "stats/descriptive.h"

using namespace uniloc;

namespace {

/// Toy magnetic matcher: remembers the ambient magnetic fluctuation
/// profile along the walkway (collected offline) and matches the recent
/// window of online readings against it. Coarse, drifts in open space,
/// quite usable in steel-framed corridors -- a genuinely different error
/// profile from the standard five schemes.
class MagneticScheme final : public schemes::LocalizationScheme {
 public:
  MagneticScheme(const sim::Place* place, std::size_t walkway,
                 std::uint64_t seed)
      : place_(place), walkway_(walkway) {
    // Offline signature: magnetic sd sampled every meter along the path.
    sim::AmbientSimulator ambient(sim::AmbientParams{}, seed);
    const sim::Walkway& w = place_->walkways()[walkway_];
    for (double s = 0.0; s <= w.line.length(); s += 1.0) {
      profile_.push_back(
          ambient.sample(w.segment_at(s).type).mag_field_sd_ut);
      arclen_.push_back(s);
    }
  }

  std::string name() const override { return "Magnetic"; }
  schemes::SchemeFamily family() const override {
    return schemes::SchemeFamily::kOther;
  }

  void reset(const schemes::StartCondition& start) override {
    window_.clear();
    const geo::Projection proj =
        place_->walkways()[walkway_].line.project(start.pos);
    cursor_ = proj.arclen;
  }

  // `out` is a slot the pipeline reuses: an available epoch writes every
  // field a kOther consumer reads (estimate and posterior).
  void update_into(const sim::SensorFrame& frame,
                   schemes::SchemeOutput& out) override {
    window_.push_back(frame.ambient.mag_field_sd_ut);
    if (window_.size() > kWindow) window_.erase(window_.begin());
    out.available = false;
    if (window_.size() < kWindow) return;  // warming up

    // Advance a cursor by the nominal step and refine it by matching the
    // recent magnetic window against the offline profile near the cursor.
    cursor_ += 0.7;
    double best_s = cursor_, best_score = 1e18;
    for (double s = cursor_ - 8.0; s <= cursor_ + 8.0; s += 1.0) {
      double score = 0.0;
      for (std::size_t k = 0; k < kWindow; ++k) {
        const double at = s - static_cast<double>(kWindow - 1 - k) * 0.7;
        score += std::abs(profile_at(at) - window_[k]);
      }
      if (score < best_score) {
        best_score = score;
        best_s = s;
      }
    }
    cursor_ = best_s;
    const sim::Walkway& w = place_->walkways()[walkway_];
    out.available = true;
    out.estimate = w.line.point_at(cursor_);
    schemes::Posterior::gaussian_into(out.estimate, 6.0, 2, out.posterior);
  }

 private:
  static constexpr std::size_t kWindow = 8;

  double profile_at(double s) const {
    if (profile_.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        std::clamp(s, 0.0, static_cast<double>(profile_.size() - 1)));
    return profile_[idx];
  }

  const sim::Place* place_;
  std::size_t walkway_;
  std::vector<double> profile_;
  std::vector<double> arclen_;
  std::vector<double> window_;
  double cursor_{0.0};
};

/// Step 2 of integration: train the new scheme's error model with the
/// generic 2-step workflow (Sec. III-A) -- black-box execution, record
/// (features, error), fit.
core::ErrorModel train_magnetic_model(const core::Deployment& d,
                                      std::size_t walkway) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    MagneticScheme scheme(d.place.get(), walkway, 77);
    sim::WalkConfig wc;
    wc.seed = seed;
    sim::Walker walker(d.place.get(), d.radio.get(), walkway, wc);
    scheme.reset({walker.start_position(), walker.start_heading()});
    while (!walker.done()) {
      const sim::SensorFrame f = walker.step(false);
      const schemes::SchemeOutput out = scheme.update(f);
      if (!out.available) continue;
      core::FeatureContext ctx;  // kOther features need no infrastructure
      x.push_back(core::extract_features(schemes::SchemeFamily::kOther, f,
                                         out, ctx));
      y.push_back(geo::distance(out.estimate, f.truth_pos));
    }
  }
  return core::ErrorModel::fitted_single(stats::fit_ols(x, y, {"spread"}));
}

}  // namespace

int main() {
  const core::TrainedModels models = core::train_standard_models(42, 300);
  core::Deployment campus = core::make_deployment(sim::campus());
  const std::size_t path = 0;

  // Baseline: the standard five schemes.
  core::Uniloc five = core::make_uniloc(campus, models);
  core::RunOptions opts;
  opts.walk.seed = 555;
  const core::RunResult base = core::run_walk(five, campus, path, opts);

  // Step 3 of integration: one add_scheme() call.
  core::Uniloc six = core::make_uniloc(campus, models);
  six.add_scheme(std::make_unique<MagneticScheme>(campus.place.get(), path,
                                                  77),
                 train_magnetic_model(campus, path));
  const core::RunResult extended = core::run_walk(six, campus, path, opts);

  std::printf("integrating a 6th scheme (magnetic matching) into UniLoc:\n\n");
  std::printf("  schemes registered: %zu -> %zu\n", five.num_schemes(),
              six.num_schemes());
  std::printf("  UniLoc2 mean error: %.2f m (5 schemes) -> %.2f m "
              "(6 schemes)\n",
              stats::mean(base.uniloc2_errors()),
              stats::mean(extended.uniloc2_errors()));
  const std::vector<double> usage = extended.uniloc1_usage();
  std::printf("  the new scheme was UniLoc1's choice at %.1f%% of "
              "locations\n\n",
              100.0 * usage.back());
  std::printf("integration touched zero lines of framework code: one class, "
              "one model fit, one add_scheme() call.\n");
  return 0;
}
