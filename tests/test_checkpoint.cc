// Checkpoint/restore correctness: the crash-recovery differential suite.
//
// A server snapshot is one lossless keyframe wave (svc/delta.h). The
// claim is that a server killed at an arbitrary round and restored from
// its latest checkpoint serves the exact epoch stream of an
// uninterrupted run. These tests hold it to that claim the same way the
// worker differentials do -- bit-for-bit comparisons, never tolerances:
//
//   * codec round trips at every layer (particle filter with its
//     generator state, whole server) continue the random stream exactly;
//   * crash+restore every K rounds (K in {1, 7, 31}) on the campus
//     deployment covering all eight paths, at workers 0 and 4, across a
//     16-seed sweep, reproduces the uninterrupted timeline;
//   * hostile input -- payloads cut at every length or bit-flipped and
//     re-sealed behind a valid CRC, relabelled payload codecs, framing
//     damage, buffers in the retired pre-wave format -- is rejected
//     cleanly (the ASan+UBSan gate in scripts/check.sh runs this suite).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
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
#include "svc/delta.h"
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

// Each codec ends a filter record in its 16-byte generator field (u64
// key, u64 block counter). A record cut anywhere inside that field must be
// rejected and leave the filter exactly as it was, and the full record
// must restore the generator: the restored filter draws what the source
// would have drawn.
TEST(PhiloxState, TruncatedGeneratorFieldIsRejectedByBothCodecs) {
  filter::KernelScratch scratch;
  filter::ParticleFilter source(48, /*seed=*/5);
  source.init({3.0, 4.0}, 0.7, 0.8, 0.08, 0.07);
  source.predict(0.7, 0.1, 0.12, 0.035, scratch);
  const geo::BBox venue{{-10.0, -10.0}, {40.0, 30.0}};
  for (const bool quantized : {false, true}) {
    const auto snapshot = [&](const filter::ParticleFilter& f) {
      offload::ByteWriter w;
      if (quantized) {
        f.snapshot_into_quantized(w, venue);
      } else {
        f.snapshot_into(w);
      }
      return w.take();
    };
    const auto restore = [&](filter::ParticleFilter& f,
                             offload::ByteReader& r) {
      return quantized ? f.restore_from_quantized(r) : f.restore_from(r);
    };
    const std::string codec = quantized ? "quantized" : "lossless";
    const std::vector<std::uint8_t> bytes = snapshot(source);
    ASSERT_GT(bytes.size(), 16u);

    // The lossless record is the filter's whole state, bit for bit.
    const auto state = [](const filter::ParticleFilter& f) {
      offload::ByteWriter w;
      f.snapshot_into(w);
      return w.take();
    };
    filter::ParticleFilter target(48, /*seed=*/999);
    target.init({-9.0, 9.0}, -1.0, 0.5, 0.05, 0.05);
    const std::vector<std::uint8_t> before = state(target);
    for (std::size_t cut = bytes.size() - 16; cut < bytes.size(); ++cut) {
      offload::ByteReader r(bytes.data(), cut);
      EXPECT_FALSE(restore(target, r)) << codec << " cut at " << cut;
      EXPECT_EQ(state(target), before) << codec << " cut at " << cut;
    }

    offload::ByteReader r(bytes.data(), bytes.size());
    ASSERT_TRUE(restore(target, r)) << codec;
    EXPECT_EQ(r.remaining(), 0u) << codec;
    EXPECT_EQ(snapshot(target), bytes) << codec;
    // Same generator: one more predict from equal clouds stays equal.
    filter::ParticleFilter twin(48, /*seed=*/1);
    offload::ByteReader r2(bytes.data(), bytes.size());
    ASSERT_TRUE(restore(twin, r2)) << codec;
    target.predict(0.7, -0.2, 0.12, 0.035, scratch);
    twin.predict(0.7, -0.2, 0.12, 0.035, scratch);
    EXPECT_EQ(state(target), state(twin)) << codec;
  }
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
std::unique_ptr<svc::LocalizationServer> warm_server(
    svc::ServerConfig cfg = {}) {
  auto server = std::make_unique<svc::LocalizationServer>(
      std::move(cfg), factory_for(campus_deployment()), nullptr);
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
  ASSERT_TRUE(b.restore({snap}).ok);
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

  ASSERT_TRUE(server->restore({snap}).ok);
  EXPECT_EQ(server->live_sessions(), 2u);
  const svc::DecodeResult back =
      svc::decode_frame(server->submit(epoch_frame(1)).get());
  ASSERT_TRUE(back.frame.has_value());
  EXPECT_EQ(back.frame->type, svc::FrameType::kReply);
}

TEST(ServerSnapshot, SnapshotIsAPureRead) {
  // Twin servers with the same traffic and a frozen clock; only `a`
  // snapshots. Dirty marks and the wave sequence must not notice: the
  // next delta from each carries the same seq and records, byte for byte.
  svc::ServerConfig cfg;
  cfg.now_us = [] { return std::uint64_t{1}; };
  std::unique_ptr<svc::LocalizationServer> a = warm_server(cfg);
  std::unique_ptr<svc::LocalizationServer> b = warm_server(cfg);
  for (svc::LocalizationServer* s : {a.get(), b.get()}) {
    s->snapshot_wave(/*keyframe=*/true);
    s->submit(epoch_frame(1)).get();
  }
  const std::vector<std::uint8_t> snap = a->snapshot();
  EXPECT_EQ(a->snapshot(), snap);
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(snap, v));
  EXPECT_EQ(v.header.seq, 1u);
  EXPECT_EQ(v.records.size(), 2u);

  const std::vector<std::uint8_t> delta = a->snapshot_wave(false);
  EXPECT_EQ(delta, b->snapshot_wave(false));
  ASSERT_TRUE(svc::decode_wave(delta, v));
  EXPECT_EQ(v.header.seq, 2u);
  ASSERT_EQ(v.records.size(), 1u);
  EXPECT_EQ(v.records[0].h.id, 1u);
}

// ------------------------------------------------------ hostile snapshots

/// Rebuild a decoded wave with `edit` applied to each record's payload
/// (record index, payload bytes). The result carries a valid CRC and
/// valid framing, so payload damage reaches Uniloc::restore_from.
std::vector<std::uint8_t> reseal(
    const svc::WaveView& v,
    const std::function<void(std::size_t, std::vector<std::uint8_t>&)>&
        edit = {}) {
  svc::WaveBuilder b(v.header, v.members);
  for (std::size_t i = 0; i < v.records.size(); ++i) {
    const svc::WaveView::Record& rec = v.records[i];
    std::vector<std::uint8_t> payload(rec.payload,
                                      rec.payload + rec.h.payload_len);
    if (edit) edit(i, payload);
    b.begin_session(rec.h.id, rec.h.last_active_us, rec.h.epochs_served)
        .put_bytes(payload.data(), payload.size());
    b.end_session();
  }
  return b.finish();
}

TEST(ServerSnapshot, RejectsBadMagicVersionTrailerAndCount) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  const std::vector<std::uint8_t> snap = server->snapshot();
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(snap, v));
  ASSERT_EQ(reseal(v), snap);  // re-sealing alone changes nothing
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);
  ASSERT_TRUE(b.restore({snap}).ok);

  // Bad magic: a buffer in the retired pre-wave snapshot format (its
  // magic, version 1, scan counter, session count, then the records).
  offload::ByteWriter retired;
  retired.put_u32(0x504B4355u);
  retired.put_u8(1);
  retired.put_u64(0);
  retired.put_u32(static_cast<std::uint32_t>(v.records.size()));
  for (const svc::WaveView::Record& rec : v.records) {
    retired.put_u64(rec.h.id);
    retired.put_u64(rec.h.last_active_us);
    retired.put_u64(rec.h.epochs_served);
    retired.put_u32(rec.h.payload_len);
    retired.put_bytes(rec.payload, rec.h.payload_len);
  }
  // Unknown payload codec; a keyframe member with no record (count).
  svc::WaveView unknown = v;
  unknown.header.payload_version = 99;
  svc::WaveView orphan = v;
  orphan.members.push_back(99);
  // No valid keyframe: rejected as a wave, population left as it was.
  for (const std::vector<std::uint8_t>& bad :
       {retired.take(), reseal(unknown), reseal(orphan),
        std::vector<std::uint8_t>{}}) {
    const svc::LocalizationServer::ChainRestoreResult r = b.restore({bad});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.waves_rejected, 1u);
    EXPECT_EQ(b.live_sessions(), 2u);
  }
  EXPECT_FALSE(b.restore({}).ok);  // no wave at all
  EXPECT_EQ(b.live_sessions(), 2u);

  // Lossless payloads relabelled quantized; trailing garbage after a
  // payload. The waves are valid, so the records reach restore_from,
  // which must reject them -- and no half-restored population remains.
  svc::WaveView relabelled = v;
  relabelled.header.payload_version = svc::kPayloadQuantized;
  const std::vector<std::uint8_t> trailer =
      reseal(v, [](std::size_t i, std::vector<std::uint8_t>& p) {
        if (i == 1) p.push_back(0);
      });
  for (const std::vector<std::uint8_t>& bad : {reseal(relabelled), trailer}) {
    ASSERT_TRUE(b.restore({snap}).ok);
    const svc::LocalizationServer::ChainRestoreResult r = b.restore({bad});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.waves_rejected, 0u);
    EXPECT_EQ(b.live_sessions(), 0u);
  }
  // And the pristine snapshot still restores fine afterwards.
  EXPECT_TRUE(b.restore({snap}).ok);
  EXPECT_EQ(b.live_sessions(), 2u);
}

TEST(ServerSnapshot, EveryTruncationIsRejectedCleanly) {
  // Cut the last session's payload short and re-seal the wave (a cut of
  // the raw wave fails its CRC: delta.WaveCodec). Every cut reaches
  // restore_from, which must reject it, and the first session, already
  // rebuilt, must not survive the failure.
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  const std::vector<std::uint8_t> snap = server->snapshot();
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(snap, v));
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);

  // Exhaustive over the framing-dense prefix, strided across the bulk
  // (particle arrays), and exhaustive again near the end.
  const std::size_t len = v.records.back().h.payload_len;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < std::min<std::size_t>(len, 512); ++n) {
    lengths.push_back(n);
  }
  for (std::size_t n = 512; n + 64 < len; n += 97) lengths.push_back(n);
  for (std::size_t n = len - std::min<std::size_t>(len, 64); n < len; ++n) {
    lengths.push_back(n);
  }
  const std::size_t last = v.records.size() - 1;
  for (const std::size_t n : lengths) {
    const svc::LocalizationServer::ChainRestoreResult r = b.restore(
        {reseal(v, [last, n](std::size_t i, std::vector<std::uint8_t>& p) {
          if (i == last) p.resize(n);
        })});
    EXPECT_FALSE(r.ok) << "payload cut to " << n << " bytes";
    EXPECT_EQ(b.live_sessions(), 0u) << "payload cut to " << n << " bytes";
  }
  EXPECT_TRUE(b.restore({snap}).ok);
}

TEST(ServerSnapshot, BitFlipsNeverCrashTheRestorer) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  const std::vector<std::uint8_t> snap = server->snapshot();
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(snap, v));
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);

  // A flipped payload bit, re-sealed behind a valid CRC, may land in a
  // particle coordinate or a generator field (restore succeeds with a
  // different cloud or stream -- benign) or in a length or scheme name
  // (restore must reject). Either way: no crash, no UB, and a rejection
  // leaves no session behind.
  std::mt19937_64 rng(7);
  for (std::size_t trial = 0; trial < 1500; ++trial) {
    const std::size_t target = rng() % v.records.size();
    const std::size_t byte = rng() % v.records[target].h.payload_len;
    const auto bit = static_cast<std::uint8_t>(1u << (rng() % 8));
    const svc::LocalizationServer::ChainRestoreResult r = b.restore(
        {reseal(v, [&](std::size_t i, std::vector<std::uint8_t>& p) {
          if (i == target) p[byte] ^= bit;
        })});
    EXPECT_EQ(b.live_sessions(), r.ok ? v.records.size() : 0u)
        << "trial " << trial;
  }
  ASSERT_TRUE(b.restore({snap}).ok);
  const svc::DecodeResult reply =
      svc::decode_frame(b.submit(epoch_frame(1)).get());
  ASSERT_TRUE(reply.frame.has_value());
  EXPECT_EQ(reply.frame->type, svc::FrameType::kReply);
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
  const std::string dir = testing::TempDir() + "uniloc_periodic_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto run_once = [&d, &dir](bool with_checkpoints,
                                   svc::LocalizationServer::CheckpointStats*
                                       stats) {
    sim::VirtualClock clock;
    svc::ServerConfig cfg;
    cfg.now_us = clock.now_fn();
    if (with_checkpoints) {
      cfg.checkpoint_period_us = 2'000'000;  // every 4 rounds at 0.5 s
      cfg.checkpoint_dir = dir;
      cfg.keyframe_interval = 2;  // keyframes and deltas both
    }
    svc::LocalizationServer server(cfg, factory_for(d), nullptr);
    svc::LoadGenConfig lg;
    lg.walkers = 4;
    lg.max_epochs_per_walker = 12;
    lg.clock = &clock;
    lg.resilience.record_timeline = true;
    const svc::LoadReport report = run_load(server, d, lg, nullptr);
    if (stats != nullptr) *stats = server.checkpoint_stats();
    return report;
  };

  svc::LocalizationServer::CheckpointStats stats;
  const svc::LoadReport plain = run_once(false, nullptr);
  const svc::LoadReport checkpointed = run_once(true, &stats);
  EXPECT_GT(stats.waves, 1u);
  EXPECT_GT(stats.keyframes, 0u);
  EXPECT_LT(stats.keyframes, stats.waves);
  EXPECT_EQ(stats.publish_failures, 0u);
  expect_identical_reports(plain, checkpointed, "periodic checkpoints");

  // The last periodic chain restores every session.
  svc::ServerConfig rcfg;
  rcfg.checkpoint_dir = dir;
  svc::LocalizationServer restored(rcfg, factory_for(d), nullptr);
  const svc::LocalizationServer::ChainRestoreResult r =
      restored.restore_chain();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.waves_rejected, 0u);
  EXPECT_EQ(restored.live_sessions(), 4u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace uniloc
