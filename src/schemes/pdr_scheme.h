// Motion-based PDR localization ([7], with UnLoc-style landmarks [12]).
//
// The walking model inferred by the PDR front-end drives a 300-particle
// filter; the map imposes corridor constraints (particles that leave the
// walkable corridor are strongly down-weighted); recognized landmarks
// (turns, doors, signatures) re-anchor the cloud, which is what keeps the
// accumulated step error bounded -- and what makes "distance from the
// last landmark" the dominant error-model feature (Table I).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "filter/particle_filter.h"
#include "schemes/epoch_context.h"
#include "schemes/pdr_frontend.h"
#include "schemes/scheme.h"
#include "sim/place.h"

namespace uniloc::schemes {

struct PdrOptions {
  std::size_t num_particles = 300;  ///< Paper: 300 particles per step.
  double map_slack_m = 2.5;         ///< Softness of the corridor wall.
  double step_len_sd = 0.12;
  double heading_sd = 0.035;
  double landmark_sd_m = 3.5;       ///< Re-anchoring spread at a landmark.
  bool use_map = true;
  bool use_landmarks = true;
  /// Kill particle steps that cross floor-plan walls (requires
  /// sim::deploy_walls on the place). Stricter than the corridor tube;
  /// see bench/ablation_walls.
  bool use_walls = false;
  std::uint64_t seed = 99;
};

/// The map constraint: multiply each particle's weight by
/// exp(-z^2 / 2), z = (its distance beyond its corridor's half width) /
/// slack_m, and leave particles inside their corridor at 1.0. Under
/// stats::simd_enabled() this runs as a lane-per-particle kernel that
/// stages the likelihoods in `like` (SchemeScratch::like); otherwise as
/// a per-particle lambda. Both commit the same weights bit for bit
/// (diff.KernelOracle.MapConstraintKernelMatchesScalarLambda).
void apply_map_constraint(const sim::Place& place, double slack_m,
                          filter::ParticleFilter& pf,
                          std::vector<double>& like);

class PdrScheme : public LocalizationScheme {
 public:
  /// `place` is the digital map (public information); may be null to run
  /// unconstrained dead reckoning.
  PdrScheme(const sim::Place* place, PdrOptions opts);

  std::string name() const override { return "Motion"; }
  SchemeFamily family() const override { return SchemeFamily::kMotionPdr; }
  void reset(const StartCondition& start) override;
  void update_into(const sim::SensorFrame& frame, SchemeOutput& out) override;
  void set_epoch_context(EpochContext* ctx) override { epoch_ctx_ = ctx; }
  void attach_metrics(obs::MetricsRegistry* registry) override;
  void snapshot_into(offload::ByteWriter& w,
                     const SnapshotContext& ctx) const override;
  bool restore_from(offload::ByteReader& r,
                    const SnapshotContext& ctx) override;

  /// Meters walked since the last recognized landmark (beta1 of the
  /// motion error model).
  double distance_since_landmark() const { return dist_since_landmark_; }

 protected:
  /// Hook for subclasses (fusion) to add likelihood terms after the map
  /// constraint but before resampling. May stage its work in `buf` and
  /// read the epoch context.
  virtual void extra_reweight(const sim::SensorFrame& frame,
                              SchemeScratch& buf);

  filter::ParticleFilter& pf() { return pf_; }
  const sim::Place* place() const { return place_; }
  const PdrOptions& options() const { return opts_; }
  /// The installed epoch context (null outside Uniloc::update_fast).
  EpochContext* epoch_ctx() const { return epoch_ctx_; }

 private:
  /// One epoch of filtering (predict, constraints, reweight, resample);
  /// `buf` holds the epoch's working memory.
  void step_epoch(const sim::SensorFrame& frame, SchemeScratch& buf);
  void apply_wall_constraint(const std::vector<geo::Vec2>& before);
  void apply_landmarks(const sim::SensorFrame& frame);
  void make_output_into(SchemeOutput& out) const;

  const sim::Place* place_;
  PdrOptions opts_;
  PdrFrontend frontend_;
  filter::ParticleFilter pf_;
  obs::MetricsRegistry* registry_{nullptr};
  /// Per-stage epoch latency (scheme.<name>.stage.*); null when detached,
  /// so the hot path pays only untaken branches (obs/timer.h contract).
  obs::Histogram* map_us_{nullptr};
  obs::Histogram* extra_us_{nullptr};
  obs::Histogram* output_us_{nullptr};
  EpochContext* epoch_ctx_{nullptr};
  double dist_since_landmark_{0.0};
  bool started_{false};
};

}  // namespace uniloc::schemes
