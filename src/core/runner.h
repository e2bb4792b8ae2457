// Experiment runner: drives a Walker through a venue with UniLoc and all
// baselines attached, recording per-epoch ground-truth errors. Every bench
// and most integration tests are built on this.
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/trainer.h"
#include "core/uniloc.h"
#include "sim/walker.h"

namespace uniloc::obs {
class SpanTracer;
class TraceSink;
}  // namespace uniloc::obs

namespace uniloc::core {

struct EpochRecord {
  double t{0.0};
  double arclen{0.0};
  geo::Vec2 truth;
  sim::SegmentType env{sim::SegmentType::kOpenSpace};
  bool indoor_truth{false};
  bool indoor_detected{false};
  bool gps_was_enabled{true};
  std::size_t wifi_count{0};  ///< Audible APs this epoch (upload volume).
  std::size_t cell_count{0};  ///< Audible towers this epoch.

  std::vector<bool> scheme_available;
  std::vector<double> scheme_err;      ///< NaN where unavailable.
  std::vector<double> predicted_mu;    ///< Error-model prediction.
  std::vector<double> confidence;
  std::vector<double> weight;

  double uniloc1_err{0.0};
  double uniloc2_err{0.0};
  double oracle_err{0.0};
  std::optional<double> global_bma_err;  ///< When a GlobalWeightBma ran.
  int uniloc1_choice{-1};
  int oracle_choice{-1};
};

struct RunResult {
  std::vector<std::string> scheme_names;
  std::vector<EpochRecord> epochs;

  /// Errors of scheme `i` over epochs where it was available.
  std::vector<double> scheme_errors(std::size_t i) const;
  std::vector<double> uniloc1_errors() const;
  std::vector<double> uniloc2_errors() const;
  std::vector<double> oracle_errors() const;

  /// Fraction of epochs in which scheme i was UniLoc1's / the oracle's
  /// choice.
  std::vector<double> uniloc1_usage() const;
  std::vector<double> oracle_usage() const;

  /// Fraction of epochs with GPS enabled.
  double gps_duty_fraction() const;

  void append(const RunResult& other);
};

struct RunOptions {
  sim::WalkConfig walk{};
  bool use_gps_duty_cycle = true;
  /// Record estimates only every k-th step (the paper evaluates roughly
  /// every 3 m; 1 = every step).
  int record_every = 1;
  const GlobalWeightBma* global_bma = nullptr;
  /// Receives one structured event per recorded epoch (null: no tracing).
  obs::TraceSink* trace = nullptr;
  /// Causal span tracing (obs/span.h; null = off). Attached to the
  /// Uniloc for the duration of the walk: each epoch gets a `core.epoch`
  /// root span with the framework's scheme/fuse spans as children.
  obs::SpanTracer* tracer = nullptr;
};

/// Build a Uniloc over the deployment with the standard five schemes and
/// the given trained models.
Uniloc make_uniloc(const Deployment& d, const TrainedModels& models,
                   UnilocConfig cfg = {}, bool calibrate_offset = false,
                   std::uint64_t seed = 7);

/// Walk `walkway_index` of the deployment end to end.
RunResult run_walk(Uniloc& uniloc, const Deployment& d,
                   std::size_t walkway_index, const RunOptions& opts);

}  // namespace uniloc::core
