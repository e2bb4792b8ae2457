// Checkpoint/restore correctness: the crash-recovery differential suite.
//
// The snapshot codec (svc/checkpoint.h) claims that a server killed at an
// arbitrary round and restored from its latest checkpoint serves the
// exact epoch stream of an uninterrupted run. These tests hold it to that
// claim the same way the worker differentials do -- bit-for-bit
// comparisons, never tolerances:
//
//   * codec round trips at every layer (RNG engine, particle filter,
//     whole server) continue the random stream exactly;
//   * crash+restore every K rounds (K in {1, 7, 31}) on the campus
//     deployment covering all eight paths, at workers 0 and 4, across a
//     16-seed sweep, reproduces the uninterrupted timeline;
//   * hostile input -- truncations at every prefix length, single bit
//     flips, bad magic/version/framing -- is rejected cleanly (the
//     ASan+UBSan gate in scripts/check.sh runs this suite).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/trainer.h"
#include "fault/crash.h"
#include "fault/plan.h"
#include "filter/particle_filter.h"
#include "offload/bytes.h"
#include "sim/builders.h"
#include "sim/virtual_clock.h"
#include "stats/rng_codec.h"
#include "svc/checkpoint.h"
#include "svc/epoch_codec.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "testing_util.h"

namespace uniloc {
namespace {

const core::TrainedModels& test_models() {
  return testing_util::standard_models(100);
}

const core::Deployment& campus_deployment() {
  static const core::Deployment d = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});
  return d;
}

svc::UnilocFactory factory_for(const core::Deployment& d) {
  return [&d](std::uint64_t sid) {
    return std::make_unique<core::Uniloc>(core::make_uniloc(
        d, test_models(), {}, false, /*seed=*/7 + sid));
  };
}

void expect_same(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << what;
}

void expect_identical_reports(const svc::LoadReport& ref,
                              const svc::LoadReport& crashed,
                              const std::string& label) {
  ASSERT_EQ(ref.walkers.size(), crashed.walkers.size()) << label;
  EXPECT_EQ(ref.total_epochs, crashed.total_epochs) << label;
  for (std::size_t w = 0; w < ref.walkers.size(); ++w) {
    const svc::WalkerOutcome& r = ref.walkers[w];
    const svc::WalkerOutcome& c = crashed.walkers[w];
    const std::string at = label + " walker " + std::to_string(w);
    EXPECT_EQ(r.session_id, c.session_id) << at;
    EXPECT_EQ(r.walkway, c.walkway) << at;
    EXPECT_EQ(r.epochs_accepted, c.epochs_accepted) << at;
    EXPECT_EQ(r.local_epochs, c.local_epochs) << at;
    EXPECT_EQ(r.rehellos, c.rehellos) << at;
    ASSERT_EQ(r.timeline.size(), c.timeline.size()) << at;
    for (std::size_t e = 0; e < r.timeline.size(); ++e) {
      const svc::EpochEvent& re = r.timeline[e];
      const svc::EpochEvent& ce = c.timeline[e];
      const std::string ep = at + " epoch " + std::to_string(e);
      EXPECT_EQ(re.epoch, ce.epoch) << ep;
      EXPECT_EQ(re.source, ce.source) << ep;
      EXPECT_EQ(re.attempts, ce.attempts) << ep;
      EXPECT_EQ(re.rehello, ce.rehello) << ep;
      expect_same(re.estimate.x, ce.estimate.x, ep + " x");
      expect_same(re.estimate.y, ce.estimate.y, ep + " y");
      expect_same(re.error_m, ce.error_m, ep + " err");
    }
  }
}

// ------------------------------------------------------------ codec units

TEST(RngCodec, EngineRoundTripContinuesStreamExactly) {
  stats::Mt19937_64 original(12345);
  for (int i = 0; i < 1000; ++i) original();  // mid-stream position

  offload::ByteWriter w;
  stats::snapshot_engine(original, w);
  const std::vector<std::uint8_t> bytes = w.take();

  offload::ByteReader r(bytes.data(), bytes.size());
  stats::Mt19937_64 restored;
  ASSERT_TRUE(stats::restore_engine(restored, r));
  EXPECT_EQ(r.remaining(), 0u);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(original(), restored()) << "draw " << i;
  }
}

TEST(RngCodec, RejectsWrongTokenCountAndHostilePosition) {
  // Every rejected record must leave the engine as it was: the filters
  // restore straight into their live engines.
  constexpr std::size_t kState = stats::Mt19937_64::state_size;
  const auto record = [](std::size_t count, std::uint64_t pos) {
    offload::ByteWriter w;
    w.put_u32(static_cast<std::uint32_t>(count));
    for (std::size_t i = 0; i < kState; ++i) w.put_u64(i * 7 + 3);
    w.put_u64(pos);
    return w.take();
  };
  stats::Mt19937_64 engine(1);
  for (int i = 0; i < 100; ++i) engine();
  const stats::Mt19937_64 before = engine;
  const auto expect_rejected = [&](const std::vector<std::uint8_t>& bytes,
                                   std::size_t n, const std::string& what) {
    offload::ByteReader r(bytes.data(), n);
    EXPECT_FALSE(stats::restore_engine(engine, r)) << what;
    EXPECT_TRUE(engine == before) << what << " changed the engine";
  };
  for (const std::size_t count : {kState, kState + 2}) {
    const std::vector<std::uint8_t> bytes = record(count, 5);
    expect_rejected(bytes, bytes.size(), "count " + std::to_string(count));
  }
  // A read position past the state array would make the engine index
  // out of bounds on the next draw.
  for (const std::uint64_t pos : {kState + 1, ~std::size_t{0}}) {
    const std::vector<std::uint8_t> bytes = record(kState + 1, pos);
    expect_rejected(bytes, bytes.size(), "position " + std::to_string(pos));
  }
  const std::vector<std::uint8_t> valid = record(kState + 1, kState);
  for (std::size_t n = 0; n < valid.size(); ++n) {
    expect_rejected(valid, n, "truncated to " + std::to_string(n));
  }
  // Position state_size is the engine's own "twist first" state.
  offload::ByteReader r(valid.data(), valid.size());
  ASSERT_TRUE(stats::restore_engine(engine, r));
  EXPECT_EQ(engine.pos, kState);
  EXPECT_EQ(engine.state[kState - 1], (kState - 1) * 7 + 3);
}

// The engine record as the iostream codec wrote it, kept as the
// compatibility oracle: print a std::mt19937_64, re-encode each decimal
// token as a u64 behind a u32 token count.
std::vector<std::uint8_t> std_engine_record(const std::mt19937_64& engine) {
  std::ostringstream os;
  os << engine;
  std::istringstream is(os.str());
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t t; is >> t;) tokens.push_back(t);
  offload::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(tokens.size()));
  for (const std::uint64_t t : tokens) w.put_u64(t);
  return w.take();
}

TEST(RngCodec, SnapshotBytesEqualTheStdEngineTextTokens) {
  // Fresh (position 312), one draw in (position 1 after the first
  // twist), and mid-stream positions across several twists.
  for (const int draws : {0, 1, 311, 312, 313, 1000, 4097}) {
    std::mt19937_64 oracle(77);
    stats::Mt19937_64 engine(77);
    for (int i = 0; i < draws; ++i) {
      oracle();
      engine();
    }
    offload::ByteWriter w;
    stats::snapshot_engine(engine, w);
    const std::vector<std::uint8_t> bytes = w.take();
    EXPECT_EQ(bytes.size(), 2508u);
    EXPECT_EQ(bytes, std_engine_record(oracle)) << draws << " draws";
  }
}

TEST(RngCodec, StdEngineBytesRestoreAndContinueTheStdStream) {
  // Checkpoint files written before the in-tree engine stay readable.
  std::mt19937_64 oracle(2024);
  for (int i = 0; i < 777; ++i) oracle();
  const std::vector<std::uint8_t> bytes = std_engine_record(oracle);
  offload::ByteReader r(bytes.data(), bytes.size());
  stats::Mt19937_64 restored;
  ASSERT_TRUE(stats::restore_engine(restored, r));
  EXPECT_EQ(r.remaining(), 0u);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(restored(), oracle()) << "draw " << i;
  }
}

TEST(ParticleFilter, SnapshotRestoreContinuesFilterBitIdentically) {
  filter::ParticleFilter a(64, /*seed=*/5);
  filter::KernelScratch scratch;
  a.init({3.0, 4.0}, 0.7, 0.8, 0.08, 0.07);
  a.predict(0.7, 0.1, 0.12, 0.035, scratch);

  offload::ByteWriter w;
  a.snapshot_into(w);
  const std::vector<std::uint8_t> bytes = w.take();

  // Restore into a filter built with a DIFFERENT seed: the snapshot must
  // fully determine the continuation.
  filter::ParticleFilter b(64, /*seed=*/999);
  offload::ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(b.restore_from(r));
  EXPECT_EQ(r.remaining(), 0u);

  for (int step = 0; step < 10; ++step) {
    a.predict(0.7, -0.05, 0.12, 0.035, scratch);
    b.predict(0.7, -0.05, 0.12, 0.035, scratch);
    a.resample(scratch, 1.0);  // force a resample: consumes the uniform draw
    b.resample(scratch, 1.0);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const filter::Particle pa = a.particle(i);
    const filter::Particle pb = b.particle(i);
    ASSERT_EQ(pa.pos.x, pb.pos.x) << i;
    ASSERT_EQ(pa.pos.y, pb.pos.y) << i;
    ASSERT_EQ(pa.heading, pb.heading) << i;
    ASSERT_EQ(pa.step_scale, pb.step_scale) << i;
    ASSERT_EQ(pa.weight, pb.weight) << i;
  }
}

TEST(ParticleFilter, RestoreRejectsCountMismatchWithoutTouchingState) {
  filter::ParticleFilter a(32, 5);
  a.init({0, 0}, 0.0, 0.5, 0.05, 0.05);
  offload::ByteWriter w;
  a.snapshot_into(w);
  const std::vector<std::uint8_t> bytes = w.take();

  filter::ParticleFilter b(33, 5);  // different particle count
  b.init({9, 9}, 1.0, 0.5, 0.05, 0.05);
  const filter::Particle before = b.particle(0);
  offload::ByteReader r(bytes.data(), bytes.size());
  EXPECT_FALSE(b.restore_from(r));
  const filter::Particle after = b.particle(0);
  EXPECT_EQ(before.pos.x, after.pos.x);
  EXPECT_EQ(before.heading, after.heading);
}

// --------------------------------------------------------- server snapshot

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

/// A small live server: two sessions, a few epochs of traffic.
std::unique_ptr<svc::LocalizationServer> warm_server() {
  auto server = std::make_unique<svc::LocalizationServer>(
      svc::ServerConfig{}, factory_for(campus_deployment()), nullptr);
  for (std::uint64_t sid : {1ull, 2ull}) {
    server->submit(hello_frame(sid, {1.0, 2.0}, 0.3)).get();
    for (int e = 0; e < 3; ++e) server->submit(epoch_frame(sid)).get();
  }
  return server;
}

TEST(ServerSnapshot, RestoredServerServesIdenticalRepliesAndReSnapshots) {
  std::unique_ptr<svc::LocalizationServer> a = warm_server();
  const std::vector<std::uint8_t> snap = a->snapshot();

  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);
  ASSERT_TRUE(b.restore(snap));
  EXPECT_EQ(b.live_sessions(), 2u);
  // Re-snapshotting the restored server must reproduce the snapshot
  // byte for byte (state AND bookkeeping both round-tripped).
  EXPECT_EQ(b.snapshot(), snap);

  // Both servers now serve the same continuation.
  for (std::uint64_t sid : {1ull, 2ull}) {
    for (int e = 0; e < 4; ++e) {
      const std::vector<std::uint8_t> ra =
          a->submit(epoch_frame(sid)).get();
      const std::vector<std::uint8_t> rb =
          b.submit(epoch_frame(sid)).get();
      EXPECT_EQ(ra, rb) << "session " << sid << " epoch " << e;
    }
  }
}

TEST(ServerSnapshot, CrashDropsAllSessionsAndRestoreRevivesThem) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  const std::vector<std::uint8_t> snap = server->snapshot();

  server->crash();
  EXPECT_EQ(server->live_sessions(), 0u);
  const svc::DecodeResult lost =
      svc::decode_frame(server->submit(epoch_frame(1)).get());
  ASSERT_TRUE(lost.frame.has_value());
  EXPECT_EQ(lost.frame->type, svc::FrameType::kError);

  ASSERT_TRUE(server->restore(snap));
  EXPECT_EQ(server->live_sessions(), 2u);
  const svc::DecodeResult back =
      svc::decode_frame(server->submit(epoch_frame(1)).get());
  ASSERT_TRUE(back.frame.has_value());
  EXPECT_EQ(back.frame->type, svc::FrameType::kReply);
}

// ------------------------------------------------------ hostile snapshots

TEST(ServerSnapshot, RejectsBadMagicVersionTrailerAndCount) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  const std::vector<std::uint8_t> snap = server->snapshot();
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);

  std::vector<std::uint8_t> bad = snap;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(b.restore(bad));

  bad = snap;
  bad[4] = 99;  // unknown to both codec versions (v1 f64, v2 quantized)
  EXPECT_FALSE(b.restore(bad));

  bad = snap;
  bad[4] = svc::kSnapshotVersionQuantized;  // f64 payload relabelled v2
  EXPECT_FALSE(b.restore(bad));

  bad = snap;
  bad.push_back(0);  // trailing garbage
  EXPECT_FALSE(b.restore(bad));

  bad = snap;
  bad[13] += 1;  // session-count field (after magic+version+scan counter)
  EXPECT_FALSE(b.restore(bad));

  EXPECT_FALSE(b.restore({}));  // empty

  // A failed restore leaves no half-restored population behind.
  EXPECT_EQ(b.live_sessions(), 0u);
  // And the pristine snapshot still restores fine afterwards.
  EXPECT_TRUE(b.restore(snap));
  EXPECT_EQ(b.live_sessions(), 2u);
}

TEST(ServerSnapshot, EveryTruncationIsRejectedCleanly) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  const std::vector<std::uint8_t> snap = server->snapshot();
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);

  // Exhaustive over the framing-dense prefix, strided across the bulk
  // (particle arrays), and exhaustive again near the end.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < std::min<std::size_t>(snap.size(), 512); ++n) {
    lengths.push_back(n);
  }
  for (std::size_t n = 512; n + 64 < snap.size(); n += 97) {
    lengths.push_back(n);
  }
  for (std::size_t n = snap.size() - std::min<std::size_t>(snap.size(), 64);
       n < snap.size(); ++n) {
    lengths.push_back(n);
  }
  for (const std::size_t n : lengths) {
    const std::vector<std::uint8_t> cut(snap.begin(), snap.begin() + n);
    EXPECT_FALSE(b.restore(cut)) << "truncated to " << n << " bytes";
  }
  EXPECT_TRUE(b.restore(snap));
}

TEST(ServerSnapshot, BitFlipsNeverCrashTheRestorer) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  const std::vector<std::uint8_t> snap = server->snapshot();
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);

  // A flipped bit may land in a particle coordinate (restore succeeds
  // with a different cloud -- benign) or in framing (restore must reject);
  // either way: no crash, no UB, server still usable. The stride covers
  // header, bookkeeping, scheme names, lengths and payload bytes.
  std::mt19937_64 rng(7);
  for (std::size_t trial = 0; trial < 1500; ++trial) {
    std::vector<std::uint8_t> mutated = snap;
    const std::size_t byte = rng() % mutated.size();
    mutated[byte] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    b.restore(mutated);  // outcome unspecified; surviving is the assert
  }
  ASSERT_TRUE(b.restore(snap));
  const svc::DecodeResult reply =
      svc::decode_frame(b.submit(epoch_frame(1)).get());
  ASSERT_TRUE(reply.frame.has_value());
  EXPECT_EQ(reply.frame->type, svc::FrameType::kReply);
}

// ------------------------------------------------------- checkpoint files

TEST(CheckpointFile, AtomicWriteReadRoundTrip) {
  const std::string dir = "/tmp/uniloc_ckpt_test";
  std::filesystem::create_directories(dir);
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 0xFF, 0, 42};
  ASSERT_TRUE(svc::write_checkpoint_file(dir, bytes));
  const auto back = svc::read_checkpoint_file(dir);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  // Overwrite is atomic-replace, not append.
  const std::vector<std::uint8_t> second = {9, 9};
  ASSERT_TRUE(svc::write_checkpoint_file(dir, second));
  EXPECT_EQ(*svc::read_checkpoint_file(dir), second);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFile, MissingDirectoryOrFileReportsFailure) {
  EXPECT_FALSE(svc::write_checkpoint_file("/nonexistent_dir_xyz", {1}));
  EXPECT_FALSE(svc::read_checkpoint_file("/nonexistent_dir_xyz").has_value());
}

// ---------------------------------------------- crash-recovery differential

struct CrashScenario {
  std::size_t crash_every_rounds{0};  ///< 0 = uninterrupted baseline.
  int workers{0};
  std::uint64_t seed{2024};
  std::size_t epochs{33};  ///< > 31 so the largest K fires at least once.
};

svc::LoadReport run_crash_scenario(const core::Deployment& d,
                                   const CrashScenario& sc) {
  svc::ServerConfig cfg;
  cfg.workers = sc.workers;
  svc::LocalizationServer server(cfg, factory_for(d), nullptr);

  fault::FaultPlan plan(sc.seed);
  if (sc.crash_every_rounds > 0) {
    for (std::size_t r = sc.crash_every_rounds - 1; r <= sc.epochs + 1;
         r += sc.crash_every_rounds) {
      plan.script_crash(r);
    }
  }
  fault::CrashInjector injector(&server, &plan);

  svc::LoadGenConfig lg;
  lg.walkers = 8;  // round-robin: one per campus path
  lg.max_epochs_per_walker = sc.epochs;
  lg.seed = sc.seed;
  lg.resilience.record_timeline = true;
  lg.on_round = [&injector](std::size_t round) { injector.on_round(round); };
  const svc::LoadReport report = run_load(server, d, lg, nullptr);

  if (sc.crash_every_rounds > 0) {
    EXPECT_GT(injector.crashes(), 0u)
        << "crash schedule K=" << sc.crash_every_rounds << " never fired";
  }
  EXPECT_EQ(injector.restore_failures(), 0u);
  return report;
}

TEST(CrashRecovery, AllCampusPathsBitIdenticalForEveryCrashPeriod) {
  const core::Deployment& d = campus_deployment();
  ASSERT_EQ(d.place->walkways().size(), 8u);
  const svc::LoadReport baseline = run_crash_scenario(d, {});
  for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                              std::size_t{31}}) {
    const svc::LoadReport w0 =
        run_crash_scenario(d, {.crash_every_rounds = k, .workers = 0});
    expect_identical_reports(baseline, w0,
                             "K=" + std::to_string(k) + " workers=0");
    const svc::LoadReport w4 =
        run_crash_scenario(d, {.crash_every_rounds = k, .workers = 4});
    expect_identical_reports(baseline, w4,
                             "K=" + std::to_string(k) + " workers=4");
  }
}

TEST(CrashRecovery, SixteenSeedSweepBitIdentical) {
  const core::Deployment& d = campus_deployment();
  const std::size_t periods[] = {1, 7, 31};
  for (std::uint64_t seed = 3000; seed < 3016; ++seed) {
    const std::size_t k = periods[seed % 3];
    const svc::LoadReport baseline =
        run_crash_scenario(d, {.seed = seed, .epochs = 33});
    const svc::LoadReport crashed = run_crash_scenario(
        d, {.crash_every_rounds = k,
            .workers = static_cast<int>(seed % 2) * 4,
            .seed = seed,
            .epochs = 33});
    expect_identical_reports(
        baseline, crashed,
        "seed " + std::to_string(seed) + " K=" + std::to_string(k));
  }
}

// ------------------------------------------------- periodic checkpointing

TEST(PeriodicCheckpoint, FiresOnScheduleAndDoesNotPerturbTheRun) {
  const core::Deployment& d = campus_deployment();

  const auto run_once = [&d](bool with_checkpoints,
                             std::vector<std::uint8_t>* last,
                             std::size_t* fired) {
    sim::VirtualClock clock;
    svc::ServerConfig cfg;
    cfg.now_us = clock.now_fn();
    if (with_checkpoints) {
      cfg.checkpoint_period_us = 2'000'000;  // every 4 rounds at 0.5 s
      cfg.on_checkpoint = [last, fired](const std::vector<std::uint8_t>& b) {
        if (last != nullptr) *last = b;
        if (fired != nullptr) ++*fired;
      };
    }
    svc::LocalizationServer server(cfg, factory_for(d), nullptr);
    svc::LoadGenConfig lg;
    lg.walkers = 4;
    lg.max_epochs_per_walker = 12;
    lg.clock = &clock;
    lg.resilience.record_timeline = true;
    return run_load(server, d, lg, nullptr);
  };

  std::vector<std::uint8_t> last;
  std::size_t fired = 0;
  const svc::LoadReport plain = run_once(false, nullptr, nullptr);
  const svc::LoadReport checkpointed = run_once(true, &last, &fired);
  EXPECT_GT(fired, 1u);
  ASSERT_FALSE(last.empty());
  expect_identical_reports(plain, checkpointed, "periodic checkpoints");

  // The last periodic checkpoint is a valid restore source.
  svc::LocalizationServer restored(svc::ServerConfig{}, factory_for(d),
                                   nullptr);
  EXPECT_TRUE(restored.restore(last));
  EXPECT_EQ(restored.live_sessions(), 4u);
}

}  // namespace
}  // namespace uniloc
