// The oracle: runs one CaseSpec end to end and checks the global
// invariants the paper's correctness story rests on. Whatever the
// generated world, gait, fault schedule or crash points do:
//
//   I0  Every served decision obeys the paper's arithmetic: tau, the
//       Eq. 2 confidences, UniLoc1's argmax, the Eq. 3-5 weights and
//       fused mean, and the Sec. IV GPS duty-cycle rule all match an
//       independent recomputation (check_paper_equations).
//   I1  BMA weights are a proper distribution over the AVAILABLE schemes
//       (each in [0,1], zero where unavailable, summing to 1 whenever
//       anything ran) -- the posterior stays a distribution.
//   I2  Every fix is finite and on the premises (venue bbox + margin),
//       server fixes and local-fallback fixes alike.
//   I3  Traffic accounting is an odometer: the uplink byte counter never
//       decreases, retransmitted bytes ride on top of first attempts,
//       and the registry agrees with the report.
//   I4  Every submitted epoch is answered: accepted, served locally, or
//       explicitly errored/backpressured -- never silently lost.
//   I5  checkpoint/restore is invisible: a run that checkpoints a
//       keyframe wave every round and is crashed and restored at the
//       scheduled rounds is bit-identical to the undisturbed run.
//   I6  Worker count is invisible: workers-N == workers-0, bit for bit.
//   I8  Vectorization is invisible: a pass with the SIMD kernels forced
//       OFF (stats::ScopedSimd) reproduces the base pass -- which runs
//       with the kernels ON -- bit for bit, NaN-aware like every pass
//       comparison.
//   I9  Delta-chain durability is invisible: the I5 pass with a
//       keyframe only every fourth wave and deltas of the dirty sessions
//       in between is bit-identical to the undisturbed run. In both, a
//       restore never rejects a wave the server itself wrote.
//
// Violations come back as strings (the engine is gtest-free); each
// carries enough context to read the failure without rerunning it.
#pragma once

#include <string>
#include <vector>

#include "core/trainer.h"
#include "core/uniloc.h"
#include "proptest/case.h"

namespace uniloc::proptest {

struct Verdict {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// First violation (the shrinker's label), or "" when ok.
  std::string summary() const {
    return violations.empty() ? std::string() : violations.front();
  }
};

/// Which differential passes run_case executes on top of the base run.
/// Tests force shapes (e.g. the TSan workers pass) through these and
/// through EngineConfig::mutate.
struct OracleOptions {
  bool check_crash_restore{true};
  bool check_workers{true};
  bool check_batch{true};
  bool check_delta_chain{true};
};

/// I0: recompute, from one decision's own outputs and predictions, tau
/// (mean available mu), each confidence c_i = Phi((tau - mu_i)/sigma_i),
/// UniLoc1's first-max argmax, each weight c_i^s / sum c^s (s = the
/// default UnilocConfig::confidence_sharpness), the fused mean of the
/// available posteriors (the estimate where a posterior is empty) and
/// the GPS duty bit: off indoors, and outdoors on iff `gps_mu` (the GPS
/// model's feature-free mean) is <= the best available other mu.
/// `gps_index` is the GPS scheme's slot (-1: none registered). Shares no
/// code with core/confidence.*. Returns one message per mismatch.
std::vector<std::string> check_paper_equations(const core::EpochDecision& d,
                                               int gps_index, double gps_mu);

/// Run `spec` and return every invariant violation found. `models` is
/// the shared trained-model set (training is the expensive part; the
/// caller trains once per process).
Verdict run_case(const CaseSpec& spec, const core::TrainedModels& models,
                 const OracleOptions& opts = {});

}  // namespace uniloc::proptest
