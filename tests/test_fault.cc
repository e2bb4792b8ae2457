// Chaos suite for src/fault + the svc degradation state machine.
//
// Every test drives the real LocalizationServer through a FaultyLink with
// a *scripted* (or seeded) FaultPlan, so the exact retry counts, backoff
// values, fallback entry/exit epochs, and reconnect handshakes are known
// in advance and asserted epoch by epoch. Nothing here sleeps: link
// delays, timeouts, and the server-eviction clock are all virtual
// (sim::VirtualClock / LinkReply::delay_us), which is what makes a 30 s
// blackout assertable in milliseconds of test time.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/trainer.h"
#include "fault/crash.h"
#include "fault/link.h"
#include "fault/plan.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/virtual_clock.h"
#include "svc/epoch_codec.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "testing_util.h"

namespace uniloc {
namespace {

using fault::FaultDecision;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultRates;
using fault::FaultyLink;
using svc::EpochEvent;
using svc::LoadGenConfig;
using svc::LoadReport;
using svc::LocalizationServer;
using svc::RetryPolicy;
using svc::ServerConfig;
using svc::WalkerOutcome;

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffIsExponentialWithBoundedJitter) {
  RetryPolicy p;
  p.backoff_base_us = 50'000;
  p.backoff_multiplier = 2.0;
  p.jitter_frac = 0.1;
  // Jitter-free sequence doubles: 50 ms, 100 ms, 200 ms, 400 ms.
  EXPECT_EQ(p.backoff_us(0, 0.0), 50'000u);
  EXPECT_EQ(p.backoff_us(1, 0.0), 100'000u);
  EXPECT_EQ(p.backoff_us(2, 0.0), 200'000u);
  EXPECT_EQ(p.backoff_us(3, 0.0), 400'000u);
  // Full jitter adds exactly jitter_frac on top.
  EXPECT_EQ(p.backoff_us(0, 1.0), 55'000u);
  EXPECT_EQ(p.backoff_us(2, 1.0), 220'000u);
  // Jitter never reorders the exponential envelope.
  for (std::size_t r = 0; r + 1 < 6; ++r) {
    EXPECT_LT(p.backoff_us(r, 1.0), p.backoff_us(r + 1, 0.0) * 2);
    EXPECT_LT(p.backoff_us(r, 0.0), p.backoff_us(r + 1, 0.0));
  }
}

// -------------------------------------------------------------- fault plan

TEST(FaultPlan, DecisionsArePureFunctionsOfSeedStreamIndex) {
  FaultRates rates;
  rates.drop = 0.2;
  rates.corrupt = 0.1;
  rates.base_delay_us = 10'000;
  rates.jitter_delay_us = 5'000;
  const FaultPlan a(1234, rates);
  const FaultPlan b(1234, rates);
  const FaultPlan other(4321, rates);

  bool any_fault = false;
  bool streams_differ = false;
  for (std::uint64_t stream = 1; stream <= 4; ++stream) {
    for (std::size_t idx = 0; idx < 200; ++idx) {
      const FaultDecision da = a.decide(stream, idx);
      // Identical across instances and across repeated calls.
      EXPECT_EQ(static_cast<int>(da.kind),
                static_cast<int>(b.decide(stream, idx).kind));
      EXPECT_EQ(da.delay_us, b.decide(stream, idx).delay_us);
      EXPECT_EQ(da.delay_us, a.decide(stream, idx).delay_us);
      EXPECT_GE(da.delay_us, rates.base_delay_us);
      EXPECT_LT(da.delay_us, rates.base_delay_us + rates.jitter_delay_us);
      if (da.kind != FaultKind::kNone) any_fault = true;
      if (static_cast<int>(da.kind) !=
          static_cast<int>(a.decide(stream + 10, idx).kind)) {
        streams_differ = true;
      }
      if (static_cast<int>(da.kind) !=
          static_cast<int>(other.decide(stream, idx).kind)) {
        streams_differ = true;  // seed changes the schedule too
      }
    }
  }
  EXPECT_TRUE(any_fault);      // 30% fault mass over 800 draws
  EXPECT_TRUE(streams_differ); // streams are independent schedules
}

TEST(FaultPlan, ScriptedLayersOverrideRandomAndBlackout) {
  FaultRates rates;
  rates.drop = 1.0;  // random layer would drop everything
  FaultPlan plan(7, rates);
  plan.add_blackout(10, 20);
  plan.script_all_streams(10, {FaultKind::kCorrupt, 0});
  plan.script(3, 10, {FaultKind::kNone, 123});

  // Random layer (outside every scripted window): all drops.
  EXPECT_EQ(static_cast<int>(plan.decide(1, 5).kind),
            static_cast<int>(FaultKind::kDrop));
  // Blackout window maps to kDown.
  EXPECT_EQ(static_cast<int>(plan.decide(1, 15).kind),
            static_cast<int>(FaultKind::kDown));
  EXPECT_EQ(static_cast<int>(plan.decide(1, 19).kind),
            static_cast<int>(FaultKind::kDown));
  EXPECT_EQ(static_cast<int>(plan.decide(1, 20).kind),
            static_cast<int>(FaultKind::kDrop));  // window is half-open
  // All-stream script beats the blackout...
  EXPECT_EQ(static_cast<int>(plan.decide(1, 10).kind),
            static_cast<int>(FaultKind::kCorrupt));
  // ...and the per-stream script beats everything.
  EXPECT_EQ(static_cast<int>(plan.decide(3, 10).kind),
            static_cast<int>(FaultKind::kNone));
  EXPECT_EQ(plan.decide(3, 10).delay_us, 123u);
}

TEST(FaultPlan, KindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kNone), "none");
  EXPECT_STREQ(fault_kind_name(FaultKind::kDrop), "drop");
  EXPECT_STREQ(fault_kind_name(FaultKind::kDuplicate), "duplicate");
  EXPECT_STREQ(fault_kind_name(FaultKind::kReorder), "reorder");
  EXPECT_STREQ(fault_kind_name(FaultKind::kCorrupt), "corrupt");
  EXPECT_STREQ(fault_kind_name(FaultKind::kDown), "down");
}

// ------------------------------------------------------------ chaos fixture

const core::TrainedModels& test_models() {
  return testing_util::standard_models(100);
}

struct ChaosFixture {
  const core::Deployment& office = testing_util::office_deployment();

  svc::UnilocFactory factory() {
    return [this](std::uint64_t sid) {
      return std::make_unique<core::Uniloc>(core::make_uniloc(
          office, test_models(), {}, false, /*seed=*/7 + sid));
    };
  }
};

svc::LinkFactory faulty_links(const FaultPlan* plan,
                              obs::MetricsRegistry* reg = nullptr) {
  return [plan, reg](svc::LocalizationServer& server, std::uint64_t sid) {
    return std::make_unique<FaultyLink>(
        std::make_unique<svc::DirectLink>(&server), plan, sid, reg);
  };
}

// ------------------------------------------------------------- drop bursts

TEST(Chaos, DropBurstConsumesExactRetryBudget) {
  ChaosFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);

  // One walker, one send per epoch while healthy: epoch i rides send i
  // until the first fault shifts the mapping. Drop sends 5 and 6: epoch 5
  // burns attempt 1 (send 5) and retry 1 (send 6), then lands with retry
  // 2 (send 7). Budget is 1 + 3 attempts, so the phone never degrades.
  FaultPlan plan(0);
  plan.script(1, 5, {FaultKind::kDrop, 0});
  plan.script(1, 6, {FaultKind::kDrop, 0});

  LoadGenConfig lg;
  lg.walkers = 1;
  lg.max_epochs_per_walker = 12;
  lg.resilience.retry.max_retries = 3;
  lg.resilience.record_timeline = true;
  lg.make_link = faulty_links(&plan, &reg);
  const LoadReport report = run_load(server, fx.office, lg, &reg);

  ASSERT_EQ(report.walkers.size(), 1u);
  const WalkerOutcome& w = report.walkers[0];
  EXPECT_EQ(w.epochs_accepted, 12u);
  EXPECT_EQ(w.retries, 2u);
  EXPECT_EQ(w.timeouts, 2u);
  EXPECT_EQ(w.fallback_entries, 0u);
  EXPECT_EQ(w.local_epochs, 0u);
  ASSERT_EQ(w.timeline.size(), 12u);
  for (std::size_t e = 0; e < 12; ++e) {
    EXPECT_EQ(static_cast<int>(w.timeline[e].source),
              static_cast<int>(EpochEvent::Source::kServer))
        << "epoch " << e;
    EXPECT_EQ(w.timeline[e].attempts, e == 5 ? 3u : 1u) << "epoch " << e;
  }
  EXPECT_EQ(report.traffic.retransmits, 2u);
  EXPECT_GT(report.traffic.retransmitted_bytes, 0u);
  EXPECT_EQ(reg.counter("fault.injected.drop").value(), 2u);
  EXPECT_EQ(reg.counter("fault.retries").value(), 2u);
  EXPECT_EQ(reg.counter("fault.timeouts").value(), 2u);
  EXPECT_EQ(reg.counter("svc.degraded.enter").value(), 0u);
}

// -------------------------------------------------------------- corruption

TEST(Chaos, CorruptedFramesAreRejectedAndRetransmitted) {
  ChaosFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);

  // Corrupt two sends. A corrupt frame still reaches the server, fails
  // the wire boundary (flipped magic byte), and comes back kMalformed;
  // the client treats that as detected corruption and retransmits.
  // Mapping: epoch 3 = sends 3+4, epochs 4..7 = sends 5..8,
  // epoch 8 = sends 9+10.
  FaultPlan plan(0);
  plan.script(1, 3, {FaultKind::kCorrupt, 0});
  plan.script(1, 9, {FaultKind::kCorrupt, 0});

  LoadGenConfig lg;
  lg.walkers = 1;
  lg.max_epochs_per_walker = 10;
  lg.resilience.record_timeline = true;
  lg.make_link = faulty_links(&plan, &reg);
  const LoadReport report = run_load(server, fx.office, lg, &reg);

  const WalkerOutcome& w = report.walkers[0];
  EXPECT_EQ(w.epochs_accepted, 10u);
  EXPECT_EQ(w.retries, 2u);
  EXPECT_EQ(w.errors, 2u);    // the two kMalformed rejections
  EXPECT_EQ(w.timeouts, 0u);  // corruption is detected, not timed out
  EXPECT_EQ(w.timeline[3].attempts, 2u);
  EXPECT_EQ(w.timeline[8].attempts, 2u);
  EXPECT_EQ(reg.counter("fault.injected.corrupt").value(), 2u);
  EXPECT_EQ(reg.counter("svc.malformed").value(), 2u);
  EXPECT_EQ(report.traffic.retransmits, 2u);
}

// ------------------------------------------------- blackout -> local PDR

TEST(Chaos, BlackoutFallsBackToLocalPdrWithinOneEpoch) {
  ChaosFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);

  // Server blackout over sends [5, 12). With max_retries = 1 and
  // probe_period = 2 the exact schedule is:
  //   epochs 0..4   clean, sends 0..4
  //   epoch  5      sends 5+6 fail fast (kDown) -> enter fallback, local
  //   epoch  6      local (counting down to the next probe)
  //   epochs 7,9,11,13,15  probes on sends 7..11, all kDown -> local
  //   epochs 8,10,12,14,16 local between probes
  //   epoch 17      probe on send 12: the blackout is over -> server fix,
  //                 exit fallback
  //   epochs 18,19  clean, sends 13,14
  FaultPlan plan(0);
  plan.add_blackout(5, 12);

  LoadGenConfig lg;
  lg.walkers = 1;
  lg.max_epochs_per_walker = 20;
  lg.resilience.retry.max_retries = 1;
  lg.resilience.probe_period = 2;
  lg.resilience.record_timeline = true;
  lg.make_link = faulty_links(&plan, &reg);
  const LoadReport report = run_load(server, fx.office, lg, &reg);

  const WalkerOutcome& w = report.walkers[0];
  ASSERT_EQ(w.timeline.size(), 20u);

  // Epoch-by-epoch: where each estimate came from.
  for (std::size_t e = 0; e < 20; ++e) {
    const bool expect_local = e >= 5 && e <= 16;
    EXPECT_EQ(static_cast<int>(w.timeline[e].source),
              static_cast<int>(expect_local ? EpochEvent::Source::kLocal
                                            : EpochEvent::Source::kServer))
        << "epoch " << e;
    EXPECT_EQ(w.timeline[e].degraded_after, e >= 5 && e < 17)
        << "epoch " << e;
  }
  // Fallback entered on the epoch of the first failure -- within one
  // (virtual) timeout, not after a grace period of blind epochs.
  EXPECT_TRUE(w.timeline[5].entered_fallback);
  EXPECT_EQ(w.timeline[5].attempts, 2u);  // 1 + max_retries, both kDown
  EXPECT_TRUE(w.timeline[17].exited_fallback);
  EXPECT_EQ(w.timeline[17].attempts, 1u);  // first probe after recovery
  EXPECT_EQ(w.fallback_entries, 1u);
  EXPECT_EQ(w.fallback_exits, 1u);
  EXPECT_EQ(w.local_epochs, 12u);
  EXPECT_EQ(w.epochs_accepted, 8u);
  EXPECT_EQ(w.rehellos, 0u);  // session survived (no eviction here)
  // Attempts: epoch 5 used 2, probes at 7/9/11/13/15 used 1 each = 7
  // sends into the blackout; all of them timed out.
  EXPECT_EQ(w.timeouts, 7u);
  EXPECT_EQ(w.retries, 1u);  // only epoch 5 had retry budget to burn
  EXPECT_EQ(reg.counter("fault.injected.down").value(), 7u);
  EXPECT_EQ(reg.counter("svc.degraded.enter").value(), 1u);
  EXPECT_EQ(reg.counter("svc.degraded.exit").value(), 1u);
  EXPECT_EQ(reg.counter("svc.degraded.epochs").value(), 12u);

  // Dead-reckoning keeps the error bounded through the whole outage: the
  // drift budget over a ~12-epoch office walk is a few meters.
  for (std::size_t e = 5; e <= 16; ++e) {
    EXPECT_LT(w.timeline[e].error_m, 15.0) << "epoch " << e;
  }
  // And the fallback track is continuous (one step per epoch, < 4 m).
  for (std::size_t e = 6; e <= 16; ++e) {
    EXPECT_LT(geo::distance(w.timeline[e].estimate,
                            w.timeline[e - 1].estimate),
              offload::StepPayload::kMaxDistance)
        << "epoch " << e;
  }
}

// ------------------------------------- eviction, re-hello, reconciliation

TEST(Chaos, EvictedSessionRehellosSeededAtLocalEstimate) {
  ChaosFixture fx;
  obs::MetricsRegistry reg;
  sim::VirtualClock clock;

  ServerConfig scfg;
  scfg.idle_ttl_s = 3.0;
  scfg.evict_scan_period = 1;  // TTL-scan on every accepted frame
  scfg.now_us = clock.now_fn();
  LocalizationServer server(scfg, fx.factory(), &reg);

  // Phone 1 loses the server for sends 5..15 (kDown, scripted per-stream
  // so phone 2 stays clean). Probing every 2nd epoch, its probes ride
  // sends 7, 8, 9, ... and the first one past the outage is send 16 at
  // epoch 25. By then the virtual clock (0.5 s per round) has run ~10 s
  // past the phone's last accepted frame, phone 2's traffic has kept the
  // TTL scanner running, and session 1 is long evicted -- so the probe
  // answers kUnknownSession and the phone re-hellos, seeded at its local
  // dead-reckoned estimate.
  FaultPlan plan(0);
  for (std::size_t idx = 5; idx <= 15; ++idx) {
    plan.script(1, idx, {FaultKind::kDown, 0});
  }

  LoadGenConfig lg;
  lg.walkers = 2;
  lg.max_epochs_per_walker = 30;
  lg.resilience.retry.max_retries = 1;
  lg.resilience.probe_period = 2;
  lg.resilience.record_timeline = true;
  lg.make_link = faulty_links(&plan, &reg);
  lg.clock = &clock;
  lg.epoch_period_s = 0.5;
  const LoadReport report = run_load(server, fx.office, lg, &reg);

  ASSERT_EQ(report.walkers.size(), 2u);
  const WalkerOutcome& w1 = report.walkers[0];
  const WalkerOutcome& w2 = report.walkers[1];

  // Phone 2 never notices anything.
  EXPECT_EQ(w2.epochs_accepted, 30u);
  EXPECT_EQ(w2.retries, 0u);
  EXPECT_EQ(w2.fallback_entries, 0u);
  EXPECT_EQ(w2.rehellos, 0u);

  // Phone 1: outage epochs 5..24 served locally, reconnect at epoch 25
  // requires a re-hello because the server evicted the session mid-way.
  EXPECT_GE(reg.counter("svc.evicted").value(), 1u);
  EXPECT_EQ(w1.rehellos, 1u);
  EXPECT_EQ(w1.fallback_entries, 1u);
  EXPECT_EQ(w1.fallback_exits, 1u);
  EXPECT_EQ(w1.local_epochs, 20u);
  EXPECT_EQ(w1.epochs_accepted, 10u);  // epochs 0..4 and 25..29
  ASSERT_EQ(w1.timeline.size(), 30u);
  EXPECT_TRUE(w1.timeline[25].rehello);
  EXPECT_TRUE(w1.timeline[25].exited_fallback);
  EXPECT_EQ(static_cast<int>(w1.timeline[25].source),
            static_cast<int>(EpochEvent::Source::kServer));
  EXPECT_EQ(reg.counter("svc.degraded.rehello").value(), 1u);

  // Reconciliation: the re-opened session was seeded at the phone's
  // dead-reckoned estimate, so the first server fix lands next to the
  // local track instead of snapping somewhere stale.
  EXPECT_LT(geo::distance(w1.timeline[25].estimate,
                          w1.timeline[24].estimate),
            10.0);
}

// ---------------------------------------------- determinism under chaos

LoadReport chaos_fleet(ChaosFixture& fx, const FaultPlan* plan,
                       int workers) {
  ServerConfig scfg;
  scfg.workers = workers;
  LocalizationServer server(scfg, fx.factory(), nullptr);
  LoadGenConfig lg;
  lg.walkers = 4;
  lg.max_epochs_per_walker = 16;
  lg.resilience.record_timeline = true;
  lg.make_link = faulty_links(plan);
  LoadReport report = run_load(server, fx.office, lg, nullptr);
  server.shutdown();
  return report;
}

void expect_same_outcomes(const LoadReport& a, const LoadReport& b) {
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  EXPECT_EQ(a.traffic.uplink_bytes, b.traffic.uplink_bytes);
  EXPECT_EQ(a.traffic.retransmitted_bytes, b.traffic.retransmitted_bytes);
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    const WalkerOutcome& x = a.walkers[i];
    const WalkerOutcome& y = b.walkers[i];
    EXPECT_EQ(x.epochs_accepted, y.epochs_accepted) << "session " << i;
    EXPECT_EQ(x.retries, y.retries) << "session " << i;
    EXPECT_EQ(x.timeouts, y.timeouts) << "session " << i;
    EXPECT_EQ(x.local_epochs, y.local_epochs) << "session " << i;
    EXPECT_EQ(x.rehellos, y.rehellos) << "session " << i;
    EXPECT_DOUBLE_EQ(x.mean_error_m, y.mean_error_m) << "session " << i;
    EXPECT_DOUBLE_EQ(x.final_estimate.x, y.final_estimate.x);
    EXPECT_DOUBLE_EQ(x.final_estimate.y, y.final_estimate.y);
    ASSERT_EQ(x.timeline.size(), y.timeline.size());
    for (std::size_t e = 0; e < x.timeline.size(); ++e) {
      EXPECT_EQ(static_cast<int>(x.timeline[e].source),
                static_cast<int>(y.timeline[e].source))
          << "session " << i << " epoch " << e;
      EXPECT_EQ(x.timeline[e].attempts, y.timeline[e].attempts);
      EXPECT_DOUBLE_EQ(x.timeline[e].estimate.x, y.timeline[e].estimate.x);
      EXPECT_DOUBLE_EQ(x.timeline[e].estimate.y, y.timeline[e].estimate.y);
    }
  }
}

TEST(Chaos, SeededChaosIsBitReproducible) {
  ChaosFixture fx;
  FaultRates rates;
  rates.drop = 0.05;
  rates.duplicate = 0.02;
  rates.reorder = 0.02;
  rates.corrupt = 0.02;
  rates.base_delay_us = 10'000;
  rates.jitter_delay_us = 5'000;
  const FaultPlan plan(99, rates);
  const LoadReport a = chaos_fleet(fx, &plan, /*workers=*/0);
  const LoadReport b = chaos_fleet(fx, &plan, /*workers=*/0);
  EXPECT_GT(a.retries_total + a.timeouts_total, 0u);  // chaos actually hit
  expect_same_outcomes(a, b);
}

TEST(Chaos, WorkerThreadsDoNotChangeTheFaultSequence) {
  // Fault decisions hash (seed, session, send_index), so per-session
  // outcomes must be identical whether the server runs inline or on a
  // racing worker pool.
  ChaosFixture fx;
  FaultRates rates;
  rates.drop = 0.05;
  rates.corrupt = 0.02;
  rates.base_delay_us = 10'000;
  const FaultPlan plan(7, rates);
  const LoadReport inline_run = chaos_fleet(fx, &plan, /*workers=*/0);
  const LoadReport threaded = chaos_fleet(fx, &plan, /*workers=*/2);
  expect_same_outcomes(inline_run, threaded);
}

// -------------------------------------------------- traffic accounting

TEST(Chaos, RetransmitsAreChargedOnTopOfCleanTraffic) {
  ChaosFixture fx;

  auto run_once = [&fx](const FaultPlan* plan) {
    LocalizationServer server({}, fx.factory(), nullptr);
    LoadGenConfig lg;
    lg.walkers = 1;
    lg.max_epochs_per_walker = 15;
    if (plan != nullptr) lg.make_link = faulty_links(plan);
    return run_load(server, fx.office, lg, nullptr);
  };

  // Two isolated single-drops: each is retried once and recovered, so
  // the server sees the same epoch stream as the clean run and the only
  // wire difference is the two retransmitted frames.
  FaultPlan plan(0);
  plan.script(1, 2, {FaultKind::kDrop, 0});
  plan.script(1, 7, {FaultKind::kDrop, 0});

  const LoadReport clean = run_once(nullptr);
  const LoadReport chaos = run_once(&plan);

  EXPECT_EQ(clean.traffic.retransmits, 0u);
  EXPECT_EQ(clean.traffic.retransmitted_bytes, 0u);
  EXPECT_EQ(chaos.traffic.retransmits, 2u);
  EXPECT_EQ(chaos.total_epochs, clean.total_epochs);
  EXPECT_EQ(chaos.traffic.downlink_bytes, clean.traffic.downlink_bytes);
  // The radio pays for every attempt: chaos uplink = clean uplink plus
  // exactly the retransmitted bytes.
  EXPECT_EQ(chaos.traffic.uplink_bytes,
            clean.traffic.uplink_bytes + chaos.traffic.retransmitted_bytes);
}

TEST(Chaos, DuplicateAndReorderKeepTheSessionAlive) {
  // Duplicates double-update the server filter and reorders deliver a
  // stale fix -- both are degradations, not failures: no retries, no
  // fallback, every epoch still answered.
  ChaosFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);

  FaultPlan plan(0);
  plan.script(1, 4, {FaultKind::kDuplicate, 0});
  plan.script(1, 8, {FaultKind::kReorder, 0});
  plan.script(1, 9, {FaultKind::kReorder, 0});

  LoadGenConfig lg;
  lg.walkers = 1;
  lg.max_epochs_per_walker = 14;
  lg.resilience.record_timeline = true;
  lg.make_link = faulty_links(&plan, &reg);
  const LoadReport report = run_load(server, fx.office, lg, &reg);

  const WalkerOutcome& w = report.walkers[0];
  EXPECT_EQ(w.epochs_accepted, 14u);
  EXPECT_EQ(w.retries, 0u);
  EXPECT_EQ(w.fallback_entries, 0u);
  EXPECT_EQ(reg.counter("fault.injected.duplicate").value(), 1u);
  EXPECT_EQ(reg.counter("fault.injected.reorder").value(), 2u);
  // The duplicate was processed server-side as an extra accepted epoch.
  EXPECT_EQ(reg.counter("svc.accepted").value(),
            1u /*hello*/ + 14u + 1u /*dup*/ + 1u /*bye*/);
  // Consecutive reorders deliver stale fixes; the estimates still land
  // (kReply frames parse), so accuracy degrades but the session lives.
  for (const EpochEvent& ev : w.timeline) {
    EXPECT_EQ(static_cast<int>(ev.source),
              static_cast<int>(EpochEvent::Source::kServer));
  }
}

// -------------------------------------------------- chaos with tracing
//
// The trace_* tests are the tier-2 chaos-with-tracing gate
// (scripts/check.sh reruns them by name under ASan): scripted disasters
// with the span tracer attached must close every span they open.

/// Link factory that wires the tracer into every FaultyLink, so link.send
/// spans nest under the client's ambient attempt span.
svc::LinkFactory traced_faulty_links(const FaultPlan* plan,
                                     obs::SpanTracer* tracer) {
  return [plan, tracer](svc::LocalizationServer& server, std::uint64_t sid) {
    return std::make_unique<FaultyLink>(
        std::make_unique<svc::DirectLink>(&server), plan, sid, nullptr,
        tracer);
  };
}

TEST(Chaos, trace_zero_span_leak_under_seeded_chaos) {
  // Background fault soup plus a blackout window: every epoch abandoned
  // to a drop, timeout, fallback entry, or backpressure must still end
  // its client.epoch root and every child span. The counters make a
  // leak mechanical to detect, at workers 0 and 4 alike.
  ChaosFixture fx;
  FaultRates rates;
  rates.drop = 0.08;
  rates.duplicate = 0.04;
  rates.reorder = 0.04;
  rates.corrupt = 0.04;
  FaultPlan plan(77, rates);
  plan.add_blackout(40, 52);

  for (const int workers : {0, 4}) {
    obs::NullSpanSink sink;
    obs::SpanTracer tracer(&sink);
    svc::ServerConfig cfg;
    cfg.workers = workers;
    cfg.tracer = &tracer;
    LocalizationServer server(cfg, fx.factory(), nullptr);

    LoadGenConfig lg;
    lg.walkers = 3;
    lg.max_epochs_per_walker = 25;
    lg.tracer = &tracer;
    lg.make_link = traced_faulty_links(&plan, &tracer);
    const LoadReport report = run_load(server, fx.office, lg, nullptr);
    // A walker that timed out can leave its server epoch still in
    // flight when run_load returns; the graceful shutdown drains
    // exactly those tasks, closing their spans, before we count.
    server.shutdown();

    EXPECT_GT(report.total_epochs, 0u) << "workers=" << workers;
    EXPECT_GT(tracer.spans_opened(), 0u) << "workers=" << workers;
    EXPECT_EQ(tracer.spans_opened(), tracer.spans_closed())
        << "workers=" << workers;
  }
}

TEST(Chaos, trace_spans_annotate_fault_outcomes) {
  // A scripted drop shows up as causal annotations: the injected
  // link.send span carries note "drop", the retry rides a second
  // client.attempt under the same epoch root, and every epoch root still
  // closes as "accepted".
  ChaosFixture fx;
  obs::VectorSpanSink sink;
  obs::SpanTracer tracer(&sink);
  svc::ServerConfig cfg;
  cfg.tracer = &tracer;
  LocalizationServer server(cfg, fx.factory(), nullptr);

  FaultPlan plan(0);
  plan.script(1, 5, {FaultKind::kDrop, 0});

  LoadGenConfig lg;
  lg.walkers = 1;
  lg.max_epochs_per_walker = 12;
  lg.tracer = &tracer;
  lg.make_link = traced_faulty_links(&plan, &tracer);
  const LoadReport report = run_load(server, fx.office, lg, nullptr);
  EXPECT_EQ(report.walkers[0].epochs_accepted, 12u);
  EXPECT_EQ(tracer.spans_opened(), tracer.spans_closed());

  std::size_t dropped_sends = 0, ok_sends = 0, roots = 0, attempts = 0;
  std::uint64_t drop_trace = 0;
  for (const obs::SpanEvent& ev : sink.events()) {
    if (ev.name == "link.send" && ev.note == "drop") {
      ++dropped_sends;
      drop_trace = ev.trace_id;
    }
    if (ev.name == "link.send" && ev.note == "ok") ++ok_sends;
    if (ev.name == "client.epoch") {
      ++roots;
      EXPECT_EQ(ev.parent_id, 0u);
      EXPECT_EQ(ev.note, "accepted");
    }
    if (ev.name == "client.attempt") ++attempts;
  }
  EXPECT_EQ(dropped_sends, 1u);
  EXPECT_EQ(roots, 12u);
  // Epoch 5 burned one extra attempt on the dropped send.
  EXPECT_EQ(attempts, 13u);
  // The drop and its retry share one trace: two attempts under the
  // dropped epoch's root.
  std::size_t attempts_in_drop_trace = 0;
  for (const obs::SpanEvent& ev : sink.events()) {
    if (ev.trace_id == drop_trace && ev.name == "client.attempt") {
      ++attempts_in_drop_trace;
    }
  }
  EXPECT_EQ(attempts_in_drop_trace, 2u);
  EXPECT_GT(ok_sends, 0u);
}

TEST(Chaos, trace_crash_flight_dump_is_deterministic) {
  // A scripted mid-run crash dumps the flight recorder before the in-RAM
  // state dies. The dump reconstructs every session's recent epochs and,
  // because flight events carry no wall-clock fields, a same-seed rerun
  // produces byte-identical files.
  ChaosFixture fx;
  const std::string base = testing::TempDir() + "flight_crash_test/";
  std::filesystem::remove_all(base);

  const auto run_once = [&fx](const std::string& dir) {
    std::filesystem::create_directories(dir);
    obs::FlightRecorder flight(32);
    svc::ServerConfig cfg;
    cfg.flight = &flight;
    LocalizationServer server(cfg, fx.factory(), nullptr);

    FaultPlan plan(2024);
    plan.script_crash(5);
    plan.script_crash(9);
    fault::CrashInjector injector(&server, &plan);
    injector.attach_flight(&flight, dir);

    LoadGenConfig lg;
    lg.walkers = 2;
    lg.max_epochs_per_walker = 12;
    lg.seed = 2024;
    lg.flight = &flight;  // client + server share the black box
    lg.on_round = [&injector](std::size_t round) {
      injector.on_round(round);
    };
    const LoadReport report = run_load(server, fx.office, lg, nullptr);
    EXPECT_EQ(report.total_epochs, 24u);
    EXPECT_EQ(injector.crashes(), 2u);
    EXPECT_EQ(injector.restore_failures(), 0u);
    return injector.flight_dumps();
  };

  const std::vector<std::string> first = run_once(base + "run1/");
  const std::vector<std::string> second = run_once(base + "run2/");
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NE(first[i], second[i]);  // distinct files...
    const std::string a = slurp(first[i]);
    const std::string b = slurp(second[i]);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << first[i];  // ...identical bytes
    // The black box holds the crash marker and both walker sessions'
    // recent epochs (client submit/accept + the server's decisions).
    EXPECT_NE(a.find("\"kind\":\"crash\""), std::string::npos);
    EXPECT_NE(a.find("\"kind\":\"epoch_submit\""), std::string::npos);
    EXPECT_NE(a.find("\"kind\":\"server_epoch\""), std::string::npos);
    EXPECT_NE(a.find("\"events_seen\""), std::string::npos);
  }
  // The second crash happened later, so its dump holds more history.
  EXPECT_NE(slurp(first[0]), slurp(first[1]));
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace uniloc
