#include "proptest/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/deployment.h"
#include "core/runner.h"
#include "core/uniloc.h"
#include "fault/crash.h"
#include "fault/link.h"
#include "geo/bbox.h"
#include "obs/metrics.h"
#include "sim/builders.h"
#include "stats/simd.h"
#include "svc/loadgen.h"
#include "svc/server.h"

namespace uniloc::proptest {

namespace {

/// Fixed slack over the venue bbox for server-side fixes: GPS errors of
/// tens of meters are in-model (open-sky mean ~13.5 m, far worse under a
/// degraded sky), so "on the premises" means the bbox plus the error the
/// worst admissible scheme can contribute -- NOT a tight fence. What this
/// invariant actually hunts is divergence: NaN/Inf fixes and posteriors
/// that walked off the map.
constexpr double kServerMarginM = 75.0;

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

bool same(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return a == b;
}

/// Equal up to reassociation: the recomputation may sum in another order.
bool close(double a, double b) {
  return std::abs(a - b) <=
         1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Link decorator pinning I3's odometer half: the uplink byte counter
/// observed at send time never decreases.
class OdometerLink : public svc::Link {
 public:
  OdometerLink(std::unique_ptr<svc::Link> inner, const obs::Counter* up,
               std::vector<std::string>* violations, std::mutex* mu)
      : inner_(std::move(inner)), up_(up), violations_(violations), mu_(mu) {}

  std::future<svc::LinkReply> send(std::vector<std::uint8_t> request) override {
    const std::uint64_t now = up_->value();
    if (now < last_seen_) {
      const std::lock_guard<std::mutex> lock(*mu_);
      violations_->push_back("I3: uplink byte counter went backwards (" +
                             std::to_string(last_seen_) + " -> " +
                             std::to_string(now) + ")");
    }
    last_seen_ = now;
    return inner_->send(std::move(request));
  }

 private:
  std::unique_ptr<svc::Link> inner_;
  const obs::Counter* up_;
  std::uint64_t last_seen_{0};
  std::vector<std::string>* violations_;
  std::mutex* mu_;
};

/// Everything one pass over the load generator produces.
struct PassResult {
  svc::LoadReport report;
  std::uint64_t uplink_counter{0};
};

class CaseRunner {
 public:
  CaseRunner(const CaseSpec& spec, const core::TrainedModels& models)
      : spec_(spec),
        models_(models),
        deployment_(core::make_deployment(
            sim::random_place(spec.place),
            core::DeploymentOptions{.seed = spec.deploy_seed})),
        venue_(deployment_.place->bounds()),
        plan_(fault::build_plan(spec.faults)),
        gps_mu_(models.for_family(schemes::SchemeFamily::kGps)
                    .predict({}, /*indoor=*/false)
                    .mean) {
    const core::Uniloc probe = core::make_uniloc(deployment_, models_);
    for (std::size_t i = 0; i < probe.num_schemes(); ++i) {
      if (probe.scheme(i).family() == schemes::SchemeFamily::kGps) {
        gps_index_ = static_cast<int>(i);
      }
    }
  }

  Verdict run(const OracleOptions& opts);

 private:
  svc::UnilocFactory factory() {
    return [this](std::uint64_t sid) {
      return std::make_unique<core::Uniloc>(core::make_uniloc(
          deployment_, models_, {}, false, /*seed=*/7 + sid));
    };
  }

  /// on_epoch hook shared by every pass: I0 + I1 + I2 on the served
  /// decision.
  /// Thread-safe (workers > 0 call it from the pool).
  void check_decision(const core::EpochDecision& d, const std::string& label);

  /// Shared LoadGenConfig: same walkers / epochs / gait / faulty link in
  /// every pass, so the differential passes compare apples to apples.
  svc::LoadGenConfig load_config(const obs::Counter* up);

  /// A single-server pass. `keyframe_interval` > 0 runs the crash
  /// injector with that interval: 1 checkpoints a keyframe every round
  /// (I5), 4 a keyframe+delta chain (I9); 0 runs no crashes.
  PassResult run_single(int workers, std::size_t keyframe_interval,
                        const std::string& label);

  void check_report(const PassResult& pass);
  void compare_passes(const PassResult& ref, const PassResult& other,
                      const std::string& label);

  void violation(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu_);
    violations_.push_back(what);
  }

  const CaseSpec& spec_;
  const core::TrainedModels& models_;
  core::Deployment deployment_;
  geo::BBox venue_;
  fault::FaultPlan plan_;
  double gps_mu_;       ///< The GPS model's feature-free mean (I0).
  int gps_index_{-1};   ///< GPS slot of the session ensemble (I0).
  std::mutex mu_;
  std::vector<std::string> violations_;
};

void CaseRunner::check_decision(const core::EpochDecision& d,
                                const std::string& label) {
  for (const std::string& v : check_paper_equations(d, gps_index_, gps_mu_)) {
    violation("I0: " + label + " " + v);
  }
  // I1: a proper BMA distribution over the available schemes.
  if (d.weight.size() != d.outputs.size()) {
    violation("I1: " + label + " weight/output size mismatch (" +
              std::to_string(d.weight.size()) + " vs " +
              std::to_string(d.outputs.size()) + ")");
    return;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < d.weight.size(); ++i) {
    const double w = d.weight[i];
    if (!(w >= 0.0 && w <= 1.0 + 1e-9)) {
      violation("I1: " + label + " weight[" + std::to_string(i) + "] = " +
                fmt(w) + " outside [0,1]");
      return;
    }
    if (!d.outputs[i].available && w != 0.0) {
      violation("I1: " + label + " unavailable scheme " + std::to_string(i) +
                " carries weight " + fmt(w));
      return;
    }
    sum += w;
  }
  if (sum != 0.0 && std::abs(sum - 1.0) > 1e-9) {
    violation("I1: " + label + " weights sum to " + fmt(sum));
  }
  // I2: the fused fix is finite and on the premises.
  if (!std::isfinite(d.uniloc2.x) || !std::isfinite(d.uniloc2.y)) {
    violation("I2: " + label + " non-finite fix (" + fmt(d.uniloc2.x) + ", " +
              fmt(d.uniloc2.y) + ")");
  } else if (!venue_.inflated(kServerMarginM).contains(d.uniloc2)) {
    violation("I2: " + label + " fix (" + fmt(d.uniloc2.x) + ", " +
              fmt(d.uniloc2.y) + ") left the venue");
  }
}

svc::LoadGenConfig CaseRunner::load_config(const obs::Counter* up) {
  svc::LoadGenConfig lg;
  lg.walkers = spec_.walkers;
  lg.max_epochs_per_walker = spec_.epochs;
  lg.burst = spec_.burst;
  lg.seed = spec_.load_seed;
  lg.walk.gait = spec_.gait;
  lg.resilience.retry.max_retries = 1;
  lg.resilience.probe_period = 2;
  lg.resilience.record_timeline = true;
  lg.make_link = [this, up](svc::LocalizationServer& s, std::uint64_t sid) {
    std::unique_ptr<svc::Link> link = std::make_unique<svc::DirectLink>(&s);
    link = std::make_unique<fault::FaultyLink>(std::move(link), &plan_, sid);
    return std::make_unique<OdometerLink>(std::move(link), up, &violations_,
                                          &mu_);
  };
  return lg;
}

PassResult CaseRunner::run_single(int workers, std::size_t keyframe_interval,
                                  const std::string& label) {
  obs::MetricsRegistry reg;
  svc::ServerConfig scfg;
  scfg.workers = workers;
  scfg.on_epoch = [this, label](std::uint64_t,
                                const core::EpochDecision& d) {
    check_decision(d, label);
  };
  svc::LocalizationServer server(scfg, factory(), &reg);

  const obs::Counter* up = &reg.counter("offload.uplink_bytes");
  svc::LoadGenConfig lg = load_config(up);

  fault::CrashInjector injector(&server, &plan_, keyframe_interval);
  if (keyframe_interval > 0) {
    lg.on_round = [&injector](std::size_t round) { injector.on_round(round); };
  }

  PassResult pass;
  pass.report = run_load(server, deployment_, lg, &reg);
  pass.uplink_counter = up->value();
  if (injector.restore_failures() > 0) {
    violation((keyframe_interval == 1 ? "I5: " : "I9: ") +
              std::to_string(injector.restore_failures()) +
              " restore(s) of our own checkpoint waves failed");
  }
  return pass;
}

void CaseRunner::check_report(const PassResult& pass) {
  const svc::LoadReport& r = pass.report;
  // I3: retransmissions ride on top of first attempts, and the registry
  // odometer agrees with the report.
  if (r.traffic.uplink_bytes < r.traffic.retransmitted_bytes) {
    violation("I3: retransmitted bytes (" +
              std::to_string(r.traffic.retransmitted_bytes) +
              ") exceed total uplink (" +
              std::to_string(r.traffic.uplink_bytes) + ")");
  }
  if (r.retries_total > 0 && r.traffic.retransmitted_bytes == 0) {
    violation("I3: " + std::to_string(r.retries_total) +
              " retries but zero retransmitted bytes");
  }
  if (pass.uplink_counter != r.traffic.uplink_bytes) {
    violation("I3: registry uplink counter (" +
              std::to_string(pass.uplink_counter) +
              ") disagrees with the report (" +
              std::to_string(r.traffic.uplink_bytes) + ")");
  }
  // "Every epoch is answered" at run granularity: a run where NOTHING
  // happened -- no server accept, no local fallback, no explicit error /
  // backpressure, not even a timeout -- silently lost its traffic.
  // (total_epochs alone is zero legitimately: a blackout covering the
  // whole run pushes every epoch onto the local fallback.)
  if (r.total_epochs == 0 && r.local_epochs_total == 0 &&
      r.error_total == 0 && r.backpressure_total == 0 &&
      r.timeouts_total == 0 && spec_.epochs > 0 && spec_.walkers > 0) {
    violation("I4: the run served zero epochs and reported no failures");
  }
  // I4: every epoch a walker submitted is accounted for, and the
  // per-walker tallies agree with the timeline they summarize.
  //
  // Client-side fixes include local PDR dead-reckoning during outages,
  // which drifts from the last fix -- grant the walk's worth of slack on
  // top of the server margin.
  const double margin =
      kServerMarginM + spec_.epochs * std::max(0.1, spec_.gait.step_length_m);
  for (const svc::WalkerOutcome& w : r.walkers) {
    const std::string at = "walker " + std::to_string(w.session_id);
    if (w.timeline.size() > spec_.epochs) {
      violation("I4: " + at + " ran " + std::to_string(w.timeline.size()) +
                " epochs, cap was " + std::to_string(spec_.epochs));
    }
    std::size_t server_epochs = 0;
    std::size_t local_epochs = 0;
    for (const svc::EpochEvent& e : w.timeline) {
      if (e.source == svc::EpochEvent::Source::kServer) ++server_epochs;
      if (e.source == svc::EpochEvent::Source::kLocal) ++local_epochs;
      if (e.source != svc::EpochEvent::Source::kSkipped) {
        // I2, client side: local-fallback estimates stay near the venue.
        if (!std::isfinite(e.estimate.x) || !std::isfinite(e.estimate.y)) {
          violation("I2: " + at + " epoch " + std::to_string(e.epoch) +
                    " non-finite client estimate");
        } else if (!venue_.inflated(margin).contains(e.estimate)) {
          violation("I2: " + at + " epoch " + std::to_string(e.epoch) +
                    " client estimate (" + fmt(e.estimate.x) + ", " +
                    fmt(e.estimate.y) + ") left the venue");
        }
      }
    }
    if (server_epochs != w.epochs_accepted || local_epochs != w.local_epochs) {
      violation("I4: " + at + " tallies disagree with its timeline (" +
                std::to_string(server_epochs) + "/" +
                std::to_string(w.epochs_accepted) + " server, " +
                std::to_string(local_epochs) + "/" +
                std::to_string(w.local_epochs) + " local)");
    }
  }
}

void CaseRunner::compare_passes(const PassResult& ref, const PassResult& other,
                                const std::string& label) {
  const svc::LoadReport& a = ref.report;
  const svc::LoadReport& b = other.report;
  if (a.walkers.size() != b.walkers.size() ||
      a.total_epochs != b.total_epochs) {
    violation(label + ": report shape diverged (" +
              std::to_string(a.total_epochs) + " vs " +
              std::to_string(b.total_epochs) + " epochs)");
    return;
  }
  for (std::size_t w = 0; w < a.walkers.size(); ++w) {
    const svc::WalkerOutcome& x = a.walkers[w];
    const svc::WalkerOutcome& y = b.walkers[w];
    const std::string at = label + ": walker " + std::to_string(x.session_id);
    if (x.session_id != y.session_id || x.walkway != y.walkway ||
        x.epochs_accepted != y.epochs_accepted ||
        x.local_epochs != y.local_epochs || x.errors != y.errors ||
        x.backpressure != y.backpressure || x.rehellos != y.rehellos ||
        x.retries != y.retries || x.timeouts != y.timeouts ||
        !same(x.mean_error_m, y.mean_error_m) ||
        !same(x.final_estimate.x, y.final_estimate.x) ||
        !same(x.final_estimate.y, y.final_estimate.y)) {
      violation(at + " outcome diverged");
      return;
    }
    if (x.timeline.size() != y.timeline.size()) {
      violation(at + " timeline length diverged (" +
                std::to_string(x.timeline.size()) + " vs " +
                std::to_string(y.timeline.size()) + ")");
      return;
    }
    for (std::size_t e = 0; e < x.timeline.size(); ++e) {
      const svc::EpochEvent& p = x.timeline[e];
      const svc::EpochEvent& q = y.timeline[e];
      if (p.epoch != q.epoch || p.source != q.source ||
          p.attempts != q.attempts || p.degraded_after != q.degraded_after ||
          p.rehello != q.rehello || !same(p.estimate.x, q.estimate.x) ||
          !same(p.estimate.y, q.estimate.y) || !same(p.error_m, q.error_m)) {
        violation(at + " diverged at epoch " + std::to_string(e));
        return;
      }
    }
  }
}

Verdict CaseRunner::run(const OracleOptions& opts) {
  // Base pass: one server, deterministic inline mode, no crashes. Every
  // differential pass below must reproduce its stream bit for bit.
  const PassResult ref = run_single(/*workers=*/0, 0, "base");
  check_report(ref);

  if (opts.check_crash_restore && spec_.crash_restore &&
      !spec_.faults.crash_rounds.empty()) {
    compare_passes(ref, run_single(/*workers=*/0, 1, "crash"),
                   "I5 (crash/restore)");
  }

  if (opts.check_delta_chain && spec_.delta_chain &&
      !spec_.faults.crash_rounds.empty()) {
    compare_passes(ref, run_single(/*workers=*/0, 4, "chain"),
                   "I9 (delta chain)");
  }

  if (opts.check_workers && spec_.workers > 0) {
    compare_passes(ref,
                   run_single(static_cast<int>(spec_.workers), 0,
                              "workers"),
                   "I6 (workers)");
  }

  if (opts.check_batch && spec_.batch) {
    // I8: force the scalar kernels. The base pass above ran with SIMD
    // on, so equality pins scalar == vector.
    const stats::ScopedSimd scalar_only(false);
    compare_passes(ref, run_single(/*workers=*/0, 0, "scalar"),
                   "I8 (scalar)");
  }

  Verdict v;
  v.violations = std::move(violations_);
  return v;
}

}  // namespace

std::vector<std::string> check_paper_equations(const core::EpochDecision& d,
                                               int gps_index, double gps_mu) {
  const std::size_t n = d.outputs.size();
  if (d.predicted_error.size() != n || d.confidence.size() != n ||
      d.weight.size() != n) {
    return {"decision vectors are not index-aligned"};
  }
  std::vector<std::string> bad;
  const auto expect = [&bad](double got, double want,
                             const std::string& what) {
    if (!close(got, want)) {
      bad.push_back(what + " " + fmt(got) + " != " + fmt(want));
    }
  };
  // tau: the mean predicted error of the available schemes (0: none).
  const double inf = std::numeric_limits<double>::infinity();
  double mu_sum = 0.0, available = 0.0, best_other = inf;
  for (std::size_t i = 0; i < n; ++i) {
    if (!d.outputs[i].available) continue;
    mu_sum += d.predicted_error[i].mean;
    available += 1.0;
    if (static_cast<int>(i) != gps_index) {
      best_other = std::min(best_other, d.predicted_error[i].mean);
    }
  }
  expect(d.tau, available > 0.0 ? mu_sum / available : 0.0, "tau");
  // Eq. 2: c_i = P(Y_i <= tau), Y_i ~ N(mu_i, sigma_i); 0 if unavailable.
  // UniLoc1 takes the first available scheme of strictly greatest c_i.
  const double s = core::UnilocConfig{}.confidence_sharpness;
  int argmax = -1;
  double best_c = 0.0, sharp_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const stats::Gaussian& g = d.predicted_error[i];
    const bool on = d.outputs[i].available;
    expect(d.confidence[i],
           on ? 0.5 * std::erfc((g.mean - d.tau) / (g.sd * std::sqrt(2.0)))
              : 0.0,
           "confidence[" + std::to_string(i) + "]");
    if (on && d.confidence[i] > best_c) {
      best_c = d.confidence[i];
      argmax = static_cast<int>(i);
    }
    sharp_sum += std::pow(d.confidence[i], s);
  }
  expect(d.selected, argmax, "selected");
  // Eq. 5 on sharpened confidences, then the Eq. 3-4 mixture of the
  // posterior means (the estimate where a posterior is empty).
  geo::Vec2 fused{};
  for (std::size_t i = 0; i < n; ++i) {
    expect(d.weight[i],
           sharp_sum > 0.0 ? std::pow(d.confidence[i], s) / sharp_sum : 0.0,
           "weight[" + std::to_string(i) + "]");
    if (d.weight[i] <= 0.0) continue;
    geo::Vec2 mean = d.outputs[i].estimate;
    if (!d.outputs[i].posterior.empty()) {
      geo::Vec2 sum{};
      double mass = 0.0;
      for (const schemes::WeightedPoint& p : d.outputs[i].posterior.support) {
        sum += p.pos * p.weight;
        mass += p.weight;
      }
      mean = mass > 0.0 ? sum / mass : geo::Vec2{};
    }
    fused += mean * d.weight[i];
  }
  if (sharp_sum > 0.0) {
    expect(d.uniloc2.x, fused.x, "fused x");
    expect(d.uniloc2.y, fused.y, "fused y");
  }
  // Sec. IV duty cycle: GPS off indoors; outdoors on iff its feature-free
  // predicted error is no worse than every available other scheme's.
  expect(d.gps_enable_next,
         !d.indoor && (gps_index >= 0 ? gps_mu : inf) <= best_other,
         "gps_enable_next");
  return bad;
}

Verdict run_case(const CaseSpec& spec, const core::TrainedModels& models,
                 const OracleOptions& opts) {
  CaseRunner runner(spec, models);
  return runner.run(opts);
}

}  // namespace uniloc::proptest
