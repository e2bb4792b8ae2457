// Tests for the src/shard fleet layer: consistent-hash routing,
// live session migration (buffering, replay, rollback), hot-shard
// rebalancing, and whole-shard crash recovery.
//
// The load-bearing claims (ISSUE 7 acceptance criteria) pinned here:
//   * a fleet at workers=0 per shard is wire-transparent: run_load
//     against a ShardRouter is bit-identical to the same run against a
//     single LocalizationServer;
//   * a session migrated mid-walk serves the exact reply bytes of an
//     unmigrated run;
//   * killing one shard of four loses zero sessions (every one resumes
//     from its checkpoint, and the epoch stream stays bit-identical).
//
// Concurrency tests run real worker threads and a live rebalancer and
// are gated under TSan by scripts/check.sh (ctest -L '^shard$').
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "core/trainer.h"
#include "fault/crash.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "shard/migrate.h"
#include "shard/router.h"
#include "sim/virtual_clock.h"
#include "svc/epoch_codec.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "testing_util.h"

namespace uniloc {
namespace {

// One trained model set for every fleet test (training is the slow part).
const core::TrainedModels& test_models() {
  return testing_util::standard_models(100);
}

struct FleetFixture {
  const core::Deployment& office = testing_util::office_deployment();

  // Same seeding discipline as the server tests: a session rebuilt by any
  // shard's factory is identical to the one the original shard built.
  svc::UnilocFactory factory() {
    return [this](std::uint64_t sid) {
      return std::make_unique<core::Uniloc>(core::make_uniloc(
          office, test_models(), {}, false, /*seed=*/7 + sid));
    };
  }
};

std::vector<std::uint8_t> hello_frame(std::uint64_t sid, geo::Vec2 start,
                                      double heading) {
  svc::Frame f;
  f.type = svc::FrameType::kHello;
  f.session_id = sid;
  f.payload = svc::encode_hello({start, heading});
  return svc::encode_frame(f);
}

std::vector<std::uint8_t> epoch_frame(std::uint64_t sid) {
  svc::Frame f;
  f.type = svc::FrameType::kEpoch;
  f.session_id = sid;
  f.payload = svc::encode_epoch({}, sim::SensorFrame{});
  return svc::encode_frame(f);
}

std::vector<std::uint8_t> migrate_frame(
    std::uint64_t sid, const std::vector<std::uint8_t>& payload) {
  svc::Frame f;
  f.type = svc::FrameType::kMigrate;
  f.session_id = sid;
  f.payload = payload;
  return svc::encode_frame(f);
}

svc::Frame get_reply(svc::Endpoint& ep, std::vector<std::uint8_t> req) {
  const svc::DecodeResult r =
      svc::decode_frame(ep.submit(std::move(req)).get());
  EXPECT_EQ(r.error, svc::WireError::kNone);
  return r.frame.value();
}

/// Lowest session id >= `from` the router would place on `shard`.
std::uint64_t sid_on_shard(const shard::ShardRouter& router,
                           std::size_t shard, std::uint64_t from = 1) {
  for (std::uint64_t sid = from; sid < from + 100'000; ++sid) {
    if (router.shard_of(sid) == shard) return sid;
  }
  ADD_FAILURE() << "no session id maps to shard " << shard;
  return 0;
}

shard::RouterConfig fleet_cfg(std::size_t shards) {
  shard::RouterConfig cfg;
  cfg.shards = shards;
  cfg.server.workers = 0;  // deterministic inline mode
  return cfg;
}

svc::LoadGenConfig load_cfg(std::size_t walkers, std::size_t epochs,
                            std::uint64_t seed) {
  svc::LoadGenConfig lg;
  lg.walkers = walkers;
  lg.max_epochs_per_walker = epochs;
  lg.seed = seed;
  lg.resilience.retry.max_retries = 1;
  lg.resilience.probe_period = 2;
  lg.resilience.record_timeline = true;
  return lg;
}

/// Bit-level comparison of two load reports, timeline included (same
/// contract as the differential harness).
void expect_identical_reports(const svc::LoadReport& ref,
                              const svc::LoadReport& other,
                              const std::string& label) {
  ASSERT_EQ(ref.walkers.size(), other.walkers.size()) << label;
  EXPECT_EQ(ref.total_epochs, other.total_epochs) << label;
  for (std::size_t w = 0; w < ref.walkers.size(); ++w) {
    const svc::WalkerOutcome& r = ref.walkers[w];
    const svc::WalkerOutcome& f = other.walkers[w];
    const std::string at = label + " walker " + std::to_string(w);
    EXPECT_EQ(r.session_id, f.session_id) << at;
    EXPECT_EQ(r.walkway, f.walkway) << at;
    EXPECT_EQ(r.epochs_accepted, f.epochs_accepted) << at;
    EXPECT_EQ(r.local_epochs, f.local_epochs) << at;
    EXPECT_EQ(r.rehellos, f.rehellos) << at;
    EXPECT_EQ(r.mean_error_m, f.mean_error_m) << at;
    EXPECT_EQ(r.final_estimate.x, f.final_estimate.x) << at;
    EXPECT_EQ(r.final_estimate.y, f.final_estimate.y) << at;
    ASSERT_EQ(r.timeline.size(), f.timeline.size()) << at;
    for (std::size_t e = 0; e < r.timeline.size(); ++e) {
      const svc::EpochEvent& re = r.timeline[e];
      const svc::EpochEvent& fe = f.timeline[e];
      const std::string ep = at + " epoch " + std::to_string(e);
      EXPECT_EQ(re.epoch, fe.epoch) << ep;
      EXPECT_EQ(re.source, fe.source) << ep;
      EXPECT_EQ(re.attempts, fe.attempts) << ep;
      EXPECT_EQ(re.degraded_after, fe.degraded_after) << ep;
      EXPECT_EQ(re.rehello, fe.rehello) << ep;
      EXPECT_EQ(re.estimate.x, fe.estimate.x) << ep;
      EXPECT_EQ(re.estimate.y, fe.estimate.y) << ep;
      EXPECT_EQ(re.error_m, fe.error_m) << ep;
    }
  }
}

// ----------------------------------------------------------------- routing

TEST(Router, FleetIsWireTransparentToClients) {
  FleetFixture fx;
  svc::LocalizationServer single({}, fx.factory(), nullptr);
  const svc::LoadReport ref =
      run_load(single, fx.office, load_cfg(8, 16, 2024), nullptr);

  shard::ShardRouter router(fleet_cfg(3), fx.factory(), nullptr);
  const svc::LoadReport fleet =
      run_load(router, fx.office, load_cfg(8, 16, 2024), nullptr);

  expect_identical_reports(ref, fleet, "fleet vs single");
  EXPECT_EQ(router.live_sessions(), 0u);  // every walker said bye
}

TEST(Router, HellosSpreadAcrossShards) {
  FleetFixture fx;
  shard::ShardRouter router(fleet_cfg(4), fx.factory(), nullptr);
  for (std::uint64_t sid = 1; sid <= 32; ++sid) {
    ASSERT_EQ(get_reply(router, hello_frame(sid, {0, 0}, 0.0)).type,
              svc::FrameType::kReply);
  }
  std::size_t populated = 0;
  std::size_t total = 0;
  for (std::size_t k = 0; k < router.shard_count(); ++k) {
    total += router.server(k).live_sessions();
    if (router.server(k).live_sessions() > 0) ++populated;
  }
  EXPECT_EQ(total, 32u);
  EXPECT_GE(populated, 2u) << "consistent hashing left the fleet lopsided";
  // Routing is consistent: every session's frames land on its own shard.
  for (std::uint64_t sid = 1; sid <= 32; ++sid) {
    EXPECT_EQ(get_reply(router, epoch_frame(sid)).type,
              svc::FrameType::kReply);
  }
}

TEST(Router, StatusIsPerShardAdmin) {
  FleetFixture fx;
  shard::ShardRouter router(fleet_cfg(2), fx.factory(), nullptr);
  get_reply(router, hello_frame(1, {0, 0}, 0.0));

  for (std::uint64_t k = 0; k < 2; ++k) {
    svc::Frame req;
    req.type = svc::FrameType::kStatus;
    req.session_id = k;  // admin: names the shard, not a session
    req.payload = svc::encode_status_request(svc::StatusFormat::kJson);
    const svc::Frame reply = get_reply(router, svc::encode_frame(req));
    ASSERT_EQ(reply.type, svc::FrameType::kReply);
    const std::string text(reply.payload.begin(), reply.payload.end());
    EXPECT_NE(text.find("sessions"), std::string::npos) << "shard " << k;
  }

  svc::Frame bad;
  bad.type = svc::FrameType::kStatus;
  bad.session_id = 9;
  bad.payload = svc::encode_status_request(svc::StatusFormat::kJson);
  EXPECT_EQ(svc::error_code(get_reply(router, svc::encode_frame(bad))),
            svc::ErrorCode::kUnknownSession);

  router.crash_shard(1);
  svc::Frame dead;
  dead.type = svc::FrameType::kStatus;
  dead.session_id = 1;
  dead.payload = svc::encode_status_request(svc::StatusFormat::kJson);
  EXPECT_EQ(svc::error_code(get_reply(router, svc::encode_frame(dead))),
            svc::ErrorCode::kShuttingDown);
}

TEST(Router, MalformedBytesAreRejectedBeforeRouting) {
  FleetFixture fx;
  shard::ShardRouter router(fleet_cfg(2), fx.factory(), nullptr);
  const svc::Frame reply = get_reply(router, {0x01, 0x02, 0x03});
  EXPECT_EQ(svc::error_code(reply), svc::ErrorCode::kMalformed);
  // Nothing reached a shard: the fleet is still empty.
  EXPECT_EQ(router.live_sessions(), 0u);
}

// --------------------------------------------------------------- migration

TEST(Migration, MidWalkIsBitIdenticalToUnmigratedRun) {
  FleetFixture fx;
  svc::LocalizationServer control({}, fx.factory(), nullptr);
  obs::MetricsRegistry reg;
  shard::ShardRouter fleet(fleet_cfg(3), fx.factory(), &reg);

  sim::WalkConfig wc;
  wc.seed = 11;
  sim::Walker walker(fx.office.place.get(), fx.office.radio.get(), 0, wc);
  offload::PhoneAgent phone;
  phone.reset(walker.start_heading());

  const std::vector<std::uint8_t> hello =
      hello_frame(1, walker.start_position(), walker.start_heading());
  ASSERT_EQ(control.submit(hello).get(), fleet.submit(hello).get());

  bool gps = true;
  std::size_t migrations = 0;
  for (std::size_t e = 0; !walker.done() && e < 30; ++e) {
    if (e > 0 && e % 5 == 0) {
      // Rotate the session one shard over, mid-walk.
      const std::size_t to = (fleet.shard_of(1) + 1) % fleet.shard_count();
      ASSERT_TRUE(fleet.migrate(1, to)) << "epoch " << e;
      ASSERT_EQ(fleet.shard_of(1), to);
      ++migrations;
    }
    const sim::SensorFrame f = walker.step(gps);
    svc::Frame req;
    req.type = svc::FrameType::kEpoch;
    req.session_id = 1;
    req.payload = svc::encode_epoch(phone.reduce(f), f);
    const std::vector<std::uint8_t> bytes = svc::encode_frame(req);
    const std::vector<std::uint8_t> want = control.submit(bytes).get();
    const std::vector<std::uint8_t> got = fleet.submit(bytes).get();
    ASSERT_EQ(want, got) << "reply diverged at epoch " << e << " after "
                         << migrations << " migrations";
    const svc::DecodeResult r = svc::decode_frame(want);
    ASSERT_EQ(r.frame->type, svc::FrameType::kReply);
    gps = svc::parse_epoch_reply(r.frame->payload)->gps_enable_next;
  }
  ASSERT_GE(migrations, 4u);
  EXPECT_EQ(reg.counter("shard.migrations").value(), migrations);
}

TEST(Migration, RotationUnderLoadIsBitIdentical) {
  FleetFixture fx;
  svc::LocalizationServer single({}, fx.factory(), nullptr);
  const svc::LoadReport ref =
      run_load(single, fx.office, load_cfg(6, 18, 404), nullptr);

  shard::ShardRouter router(fleet_cfg(3), fx.factory(), nullptr);
  svc::LoadGenConfig lg = load_cfg(6, 18, 404);
  std::size_t moved = 0;
  lg.on_round = [&](std::size_t) {
    // Every round, every session hops one shard over -- maximal churn.
    for (std::uint64_t sid = 1; sid <= 6; ++sid) {
      const std::size_t to = (router.shard_of(sid) + 1) % router.shard_count();
      if (router.migrate(sid, to)) ++moved;
    }
  };
  const svc::LoadReport fleet = run_load(router, fx.office, lg, nullptr);

  EXPECT_GE(moved, 6u * 17u);  // sessions are gone by the bye round
  expect_identical_reports(ref, fleet, "migration rotation");
}

TEST(Migration, ParkedFramesReplayAfterAdoption) {
  FleetFixture fx;
  obs::MetricsRegistry reg;
  shard::RouterConfig cfg = fleet_cfg(2);
  std::function<void(std::uint64_t, std::size_t, std::size_t)> hook;
  cfg.on_migration_extracted = [&hook](std::uint64_t sid, std::size_t from,
                                       std::size_t to) {
    if (hook) hook(sid, from, to);
  };
  shard::ShardRouter router(cfg, fx.factory(), &reg);

  const std::uint64_t sid = sid_on_shard(router, 0);
  const std::uint64_t other = sid_on_shard(router, 1);
  get_reply(router, hello_frame(sid, {0, 0}, 0.0));
  get_reply(router, hello_frame(other, {0, 0}, 0.0));

  std::vector<std::future<std::vector<std::uint8_t>>> parked;
  hook = [&](std::uint64_t, std::size_t, std::size_t) {
    // The session exists on no shard right now. Frames submitted here
    // must park in the router, not fail.
    parked.push_back(router.submit(epoch_frame(sid)));
    parked.push_back(router.submit(epoch_frame(sid)));
    for (const auto& f : parked) {
      EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::timeout);
    }
    // An unrelated session is not buffered: served inline as usual.
    EXPECT_EQ(get_reply(router, epoch_frame(other)).type,
              svc::FrameType::kReply);
  };
  ASSERT_TRUE(router.migrate(sid, 1));
  ASSERT_EQ(parked.size(), 2u);
  for (auto& f : parked) {
    const svc::DecodeResult r = svc::decode_frame(f.get());
    ASSERT_TRUE(r.frame.has_value());
    EXPECT_EQ(r.frame->type, svc::FrameType::kReply);
  }
  EXPECT_EQ(reg.counter("shard.buffered_frames").value(), 2u);
  EXPECT_EQ(router.shard_of(sid), 1u);
  EXPECT_EQ(get_reply(router, epoch_frame(sid)).type, svc::FrameType::kReply);
}

TEST(Migration, ConcurrentUplinkToStaleSourceReconciles) {
  // A client that keeps talking to the session's old shard (stale route)
  // sees kUnknownSession -- the reconcile signal -- while the router
  // itself keeps serving the session at its new home.
  FleetFixture fx;
  shard::RouterConfig cfg = fleet_cfg(2);
  std::function<void(std::uint64_t, std::size_t, std::size_t)> hook;
  cfg.on_migration_extracted = [&hook](std::uint64_t sid, std::size_t from,
                                       std::size_t to) {
    if (hook) hook(sid, from, to);
  };
  shard::ShardRouter router(cfg, fx.factory(), nullptr);

  const std::uint64_t sid = sid_on_shard(router, 0);
  get_reply(router, hello_frame(sid, {0, 0}, 0.0));

  bool checked = false;
  hook = [&](std::uint64_t s, std::size_t from, std::size_t) {
    // Directly at the source shard (bypassing the router, as a stale
    // client connection would): the session is already extracted.
    EXPECT_EQ(svc::error_code(get_reply(router.server(from), epoch_frame(s))),
              svc::ErrorCode::kUnknownSession);
    checked = true;
  };
  ASSERT_TRUE(router.migrate(sid, 1));
  ASSERT_TRUE(checked);
  // Through the router the session never skipped a beat.
  EXPECT_EQ(get_reply(router, epoch_frame(sid)).type, svc::FrameType::kReply);
}

TEST(Migration, AdoptFailureRollsBackToSource) {
  FleetFixture fx;
  obs::MetricsRegistry reg;
  shard::ShardRouter router(fleet_cfg(2), fx.factory(), &reg);
  const std::uint64_t sid = sid_on_shard(router, 0);
  get_reply(router, hello_frame(sid, {0, 0}, 0.0));

  // Plant a doppelganger with the same id directly on the target shard
  // (bypassing the router): adoption there must refuse with
  // kSessionExists and the migration must roll back.
  ASSERT_EQ(get_reply(router.server(1), hello_frame(sid, {1, 1}, 0.0)).type,
            svc::FrameType::kReply);
  EXPECT_FALSE(router.migrate(sid, 1));
  EXPECT_EQ(reg.counter("shard.migration_failures").value(), 1u);
  EXPECT_EQ(reg.counter("shard.migrations").value(), 0u);

  // The session still lives on its source shard and still serves.
  EXPECT_EQ(router.shard_of(sid), 0u);
  EXPECT_EQ(router.server(0).live_sessions(), 1u);
  EXPECT_EQ(get_reply(router, epoch_frame(sid)).type, svc::FrameType::kReply);
}

TEST(Migration, InvalidTargetsAreRefused) {
  FleetFixture fx;
  shard::ShardRouter router(fleet_cfg(3), fx.factory(), nullptr);
  const std::uint64_t sid = sid_on_shard(router, 0);
  get_reply(router, hello_frame(sid, {0, 0}, 0.0));

  EXPECT_FALSE(router.migrate(999'999, 1)) << "unknown session";
  EXPECT_FALSE(router.migrate(sid, 7)) << "shard index out of range";
  EXPECT_TRUE(router.migrate(sid, 0)) << "same-shard move is a no-op";
  router.crash_shard(1);
  EXPECT_FALSE(router.migrate(sid, 1)) << "dead target";
  // The refused moves left the session serving in place.
  EXPECT_EQ(get_reply(router, epoch_frame(sid)).type, svc::FrameType::kReply);
}

// -------------------------------------------------------------- rebalance

TEST(Rebalance, DrainsHotShardOntoCold) {
  FleetFixture fx;
  obs::MetricsRegistry reg;
  shard::RouterConfig cfg = fleet_cfg(2);
  cfg.rebalance.hot_factor = 1.1;
  cfg.rebalance.min_gap = 2;
  cfg.rebalance.max_moves = 2;
  shard::ShardRouter router(cfg, fx.factory(), &reg);

  // Pile six sessions onto shard 0 (ids chosen by the ring itself).
  std::uint64_t sid = 1;
  for (int i = 0; i < 6; ++i) {
    sid = sid_on_shard(router, 0, sid);
    get_reply(router, hello_frame(sid, {0, 0}, 0.0));
    ++sid;
  }
  ASSERT_EQ(router.server(0).live_sessions(), 6u);
  ASSERT_EQ(router.server(1).live_sessions(), 0u);

  std::size_t total = 0;
  std::size_t passes = 0;
  for (std::size_t m = router.rebalance(); m > 0; m = router.rebalance()) {
    total += m;
    ++passes;
    ASSERT_LT(passes, 10u) << "rebalance does not converge";
  }
  EXPECT_EQ(total, 3u);  // 6/0 -> 4/2 -> 3/3
  EXPECT_EQ(router.server(0).live_sessions(), 3u);
  EXPECT_EQ(router.server(1).live_sessions(), 3u);
  EXPECT_EQ(reg.counter("shard.rebalances").value(), passes);
  EXPECT_EQ(reg.counter("shard.migrations").value(), total);
  // Balanced fleet: another pass must not ping-pong sessions back.
  EXPECT_EQ(router.rebalance(), 0u);
}

TEST(Rebalance, SloBreachEscalatesToAnyImbalance) {
  FleetFixture fx;
  obs::SloConfig slo_cfg;
  slo_cfg.window = 64;
  slo_cfg.min_samples = 8;
  slo_cfg.error_budget = 0.01;
  obs::SloMonitor slo(slo_cfg, nullptr);

  shard::RouterConfig cfg = fleet_cfg(2);
  // Count-based trigger effectively off: only the SLO escalation path
  // can justify a move.
  cfg.rebalance.hot_factor = 100.0;
  cfg.rebalance.min_gap = 99;
  cfg.server.slo = &slo;
  shard::ShardRouter router(cfg, fx.factory(), nullptr);

  std::uint64_t sid = 1;
  for (int i = 0; i < 3; ++i) {
    sid = sid_on_shard(router, 0, sid);
    get_reply(router, hello_frame(sid, {0, 0}, 0.0));
    ++sid;
  }
  get_reply(router, hello_frame(sid_on_shard(router, 1), {0, 0}, 0.0));

  // Healthy SLO: the 3-vs-1 gap alone is not worth a migration.
  EXPECT_EQ(router.rebalance(), 0u);

  for (int i = 0; i < 16; ++i) slo.observe(1'000.0, /*error=*/true);
  ASSERT_TRUE(slo.breached());
  // Burning error budget: the same gap now triggers a move.
  EXPECT_GE(router.rebalance(), 1u);
  EXPECT_EQ(router.server(0).live_sessions() +
                router.server(1).live_sessions(),
            4u);
}

// ------------------------------------------------------------ shard crash

TEST(Crash, WholeShardCrashLosesZeroSessions) {
  // THE fleet disaster drill: 4 shards, 8 walkers, two scripted
  // whole-shard crashes mid-run. Every session must resurrect from its
  // checkpoint on a survivor and the served epoch stream must stay
  // bit-identical to a run where nothing ever crashed.
  FleetFixture fx;
  svc::LocalizationServer single({}, fx.factory(), nullptr);
  const svc::LoadReport ref =
      run_load(single, fx.office, load_cfg(8, 20, 777), nullptr);

  shard::ShardRouter router(fleet_cfg(4), fx.factory(), nullptr);
  fault::FaultPlan plan(0, {});
  plan.script_crash(4);
  plan.script_crash(9);
  fault::ShardCrashInjector injector(&router, &plan, /*revive=*/true);
  svc::LoadGenConfig lg = load_cfg(8, 20, 777);
  lg.on_round = [&](std::size_t round) { injector.on_round(round); };
  const svc::LoadReport fleet = run_load(router, fx.office, lg, nullptr);

  EXPECT_EQ(injector.crashes(), 2u);
  EXPECT_GE(injector.sessions_recovered(), 1u);
  for (const svc::WalkerOutcome& w : fleet.walkers) {
    EXPECT_EQ(w.rehellos, 0u) << "a client noticed the crash";
    EXPECT_EQ(w.errors, 0u);
  }
  expect_identical_reports(ref, fleet, "shard crash chaos");
}

TEST(Crash, UnrecoveredCrashForcesRehelloOntoSurvivors) {
  // Without recovery the dead shard's sessions ARE lost server-side; the
  // client-side reconcile (kUnknownSession -> re-hello seeded at the
  // local estimate) must carry every walker to the end of its walk.
  FleetFixture fx;
  shard::ShardRouter router(fleet_cfg(2), fx.factory(), nullptr);
  svc::LoadGenConfig lg = load_cfg(6, 16, 909);
  lg.on_round = [&](std::size_t round) {
    if (round == 5) router.crash_shard(router.shard_of(1));
  };
  const svc::LoadReport report = run_load(router, fx.office, lg, nullptr);

  std::size_t rehellos = 0;
  for (const svc::WalkerOutcome& w : report.walkers) {
    rehellos += w.rehellos;
    EXPECT_GT(w.epochs_accepted, 0u) << "walker " << w.session_id;
    // Timeline complete: no epoch was silently dropped.
    EXPECT_EQ(w.timeline.size(), 16u) << "walker " << w.session_id;
  }
  EXPECT_GE(rehellos, 1u) << "the crash was invisible -- it should not be";
  EXPECT_EQ(router.live_sessions(), 0u);  // every survivor session said bye
}

TEST(Crash, LastShardStandingRefusesToDie) {
  FleetFixture fx;
  shard::ShardRouter router(fleet_cfg(2), fx.factory(), nullptr);
  router.crash_shard(0);
  EXPECT_FALSE(router.alive(0));
  // The fleet never goes dark: the last alive shard cannot be crashed.
  router.crash_shard(1);
  EXPECT_TRUE(router.alive(1));
  const std::uint64_t sid = 4242;
  EXPECT_EQ(get_reply(router, hello_frame(sid, {0, 0}, 0.0)).type,
            svc::FrameType::kReply);
  EXPECT_EQ(router.shard_of(sid), 1u);

  // A revived shard rejoins empty and accepts migrations again.
  router.revive_shard(0);
  EXPECT_TRUE(router.alive(0));
  EXPECT_EQ(router.server(0).live_sessions(), 0u);
  EXPECT_TRUE(router.migrate(sid, 0));
  EXPECT_EQ(get_reply(router, epoch_frame(sid)).type, svc::FrameType::kReply);
}

TEST(Crash, RecoverySkipsSessionsThatAlreadyRehelloed) {
  FleetFixture fx;
  shard::ShardRouter router(fleet_cfg(2), fx.factory(), nullptr);
  const std::uint64_t sid = sid_on_shard(router, 0);
  get_reply(router, hello_frame(sid, {0, 0}, 0.0));
  router.checkpoint_all();
  router.crash_shard(0);

  // The client wins the race: it re-hellos (onto the survivor) before
  // the operator runs recovery.
  ASSERT_EQ(get_reply(router, hello_frame(sid, {2, 2}, 0.0)).type,
            svc::FrameType::kReply);
  ASSERT_EQ(router.server(1).live_sessions(), 1u);

  // Recovery must keep the live (newer) session, not clobber it with
  // the checkpointed one.
  EXPECT_EQ(router.recover_shard(0), 0u);
  EXPECT_EQ(router.server(1).live_sessions(), 1u);
  EXPECT_EQ(get_reply(router, epoch_frame(sid)).type, svc::FrameType::kReply);
}

// ------------------------------------------------- checkpoint splitting

TEST(Split, SnapshotSplitsIntoStandaloneAdoptablePayloads) {
  FleetFixture fx;
  svc::LocalizationServer source({}, fx.factory(), nullptr);
  get_reply(source, hello_frame(1, {0, 0}, 0.0));
  get_reply(source, hello_frame(2, {1, 1}, 0.5));
  get_reply(source, epoch_frame(1));
  const std::vector<std::uint8_t> snapshot = source.snapshot();

  const auto records = shard::split_snapshot_sessions(snapshot);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].first, 1u);
  EXPECT_EQ(records[1].first, 2u);

  // Each record is a complete kMigrate payload on its own.
  svc::LocalizationServer target({}, fx.factory(), nullptr);
  for (const auto& [sid, payload] : records) {
    ASSERT_EQ(get_reply(target, migrate_frame(sid, payload)).type,
              svc::FrameType::kReply)
        << "session " << sid;
  }
  EXPECT_EQ(target.live_sessions(), 2u);
  EXPECT_EQ(get_reply(target, epoch_frame(1)).type, svc::FrameType::kReply);
}

TEST(Split, HostileSnapshotsYieldNothing) {
  FleetFixture fx;
  svc::LocalizationServer source({}, fx.factory(), nullptr);
  get_reply(source, hello_frame(1, {0, 0}, 0.0));
  get_reply(source, hello_frame(2, {1, 1}, 0.0));
  const std::vector<std::uint8_t> snapshot = source.snapshot();

  EXPECT_TRUE(shard::split_snapshot_sessions({}).empty());
  EXPECT_TRUE(shard::split_snapshot_sessions({0xDE, 0xAD}).empty());

  // A torn tail invalidates the whole split: recovery must not resurrect
  // half a population and silently drop the rest.
  std::vector<std::uint8_t> torn = snapshot;
  torn.resize(torn.size() - 3);
  EXPECT_TRUE(shard::split_snapshot_sessions(torn).empty());

  // Trailing garbage is equally fatal.
  std::vector<std::uint8_t> padded = snapshot;
  padded.push_back(0x00);
  EXPECT_TRUE(shard::split_snapshot_sessions(padded).empty());
}

// ------------------------------------------------------------ concurrency

TEST(Concurrency, RebalanceAndCheckpointDuringLiveTraffic) {
  // TSan target: real worker threads on every shard, a control loop
  // rebalancing/checkpointing from another thread, live client traffic
  // throughout. No frame may be lost or mis-answered.
  FleetFixture fx;
  shard::RouterConfig cfg = fleet_cfg(3);
  cfg.server.workers = 2;
  cfg.rebalance.hot_factor = 1.1;
  cfg.rebalance.min_gap = 1;
  shard::ShardRouter router(cfg, fx.factory(), nullptr);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> control_passes{0};
  std::thread control([&] {
    while (!done.load()) {
      router.rebalance();
      router.checkpoint_all();
      (void)router.live_sessions();
      control_passes.fetch_add(1);
      std::this_thread::yield();
    }
  });

  svc::LoadGenConfig lg = load_cfg(9, 12, 313);
  lg.resilience.record_timeline = false;
  const svc::LoadReport report = run_load(router, fx.office, lg, nullptr);
  done.store(true);
  control.join();

  EXPECT_GE(control_passes.load(), 1u);
  EXPECT_EQ(report.error_total, 0u);
  for (const svc::WalkerOutcome& w : report.walkers) {
    EXPECT_EQ(w.epochs_accepted, 12u) << "walker " << w.session_id;
    EXPECT_EQ(w.rehellos, 0u) << "walker " << w.session_id;
  }
  EXPECT_EQ(router.live_sessions(), 0u);
}

TEST(Eviction, TtlSweepKeepsRouterOverridesBounded) {
  // Regression for the unbounded-overrides leak: kHello pins sid->shard
  // in the router's override map, and before the router chained its own
  // eviction hook a TTL sweep on a shard silently dropped the session
  // while the override entry lived forever -- at city scale (millions of
  // short-lived sessions per day) an unbounded leak. The sweep must now
  // shrink the map in lockstep with the sessions it evicts.
  FleetFixture fx;
  sim::VirtualClock clock;
  shard::RouterConfig cfg = fleet_cfg(3);
  cfg.server.now_us = clock.now_fn();
  cfg.server.idle_ttl_s = 10.0;
  shard::ShardRouter router(cfg, fx.factory(), nullptr);

  constexpr std::uint64_t kSessions = 24;
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    get_reply(router, hello_frame(sid, {2, 2}, 0.0));
  }
  EXPECT_EQ(router.live_sessions(), kSessions);
  EXPECT_EQ(router.override_count(), kSessions);

  // A polite goodbye erases its override immediately (the old path).
  svc::Frame bye;
  bye.type = svc::FrameType::kBye;
  bye.session_id = 1;
  get_reply(router, svc::encode_frame(bye));
  EXPECT_EQ(router.override_count(), kSessions - 1);

  // Everyone else goes idle past the TTL; the sweep evicts them and the
  // chained hook must erase every override along the way.
  clock.advance_s(11.0);
  std::size_t evicted = 0;
  for (std::size_t k = 0; k < router.shard_count(); ++k) {
    evicted += router.server(k).evict_idle();
  }
  EXPECT_EQ(evicted, kSessions - 1);
  EXPECT_EQ(router.live_sessions(), 0u);
  EXPECT_EQ(router.override_count(), 0u);

  // Churn proof: repeat arrivals + sweeps and the map stays bounded by
  // the live population instead of growing with the historical one.
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t sid = 100 + 50 * round; sid < 110 + 50 * round;
         ++sid) {
      get_reply(router, hello_frame(sid, {2, 2}, 0.0));
    }
    EXPECT_EQ(router.override_count(), 10u);
    clock.advance_s(11.0);
    for (std::size_t k = 0; k < router.shard_count(); ++k) {
      router.server(k).evict_idle();
    }
    EXPECT_EQ(router.override_count(), 0u);
  }
}

}  // namespace
}  // namespace uniloc
