// Bench: checkpoint cost -- snapshot latency and bytes per session.
//
// A LocalizationServer carrying N warm sessions (N in {1, 8, 32, 128},
// round-robin over the eight campus paths, a few epochs of traffic each
// so particle clouds and calibrators hold real state) is snapshotted
// repeatedly. A snapshot is one lossless keyframe wave (svc/delta.h).
// Reported per N:
//
//   snapshot_p50/p99_us   full-population snapshot latency (quiesce is
//                         free here: workers == 0, every session idle)
//   bytes_per_session     snapshot size divided by N (the per-phone
//                         checkpoint footprint; dominated by the two
//                         particle filters: five 300-double arrays
//                         each, plus each filter's 16-byte generator
//                         field, its Philox key and block counter). Each
//                         session costs its 28 B record header and its
//                         8 B member id on top of the payload, and each
//                         wave 43 B of fixed framing (header, the two
//                         counts and the CRC).
//   restore_us            one cold restore of the final snapshot
//
// Headline: bytes/session is flat in N (the format has no cross-session
// state beyond the fixed framing) and snapshot latency is linear in N.
//
// Delta section (ISSUE 10): the same warm population checkpointed
// through the wave chain -- full lossless keyframes vs quantized delta
// waves where only the sessions that advanced since the previous wave
// carry a record. Reported: bytes/session for each mode and the
// reduction factor (acceptance floor: >= 4x), plus a restore of the
// measured chain to prove the cheap waves are the real durable artifact
// and not a trimmed imitation.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "svc/epoch_codec.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/wire.h"

using namespace uniloc;

namespace {

constexpr std::size_t kWarmEpochs = 6;
constexpr std::size_t kSnapshotReps = 50;

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

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  obs::BenchReport report = bench::make_report("checkpoint");
  const core::Deployment campus = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});
  const auto factory = [&campus](std::uint64_t sid) {
    return std::make_unique<core::Uniloc>(core::make_uniloc(
        campus, bench::standard_models(), {}, false, /*seed=*/7 + sid));
  };

  io::Table table({"sessions", "bytes/session", "snap p50 (us)",
                   "snap p99 (us)", "restore (us)"});
  for (const std::size_t n : {1u, 8u, 32u, 128u}) {
    svc::LocalizationServer server(svc::ServerConfig{}, factory, nullptr);
    const auto& ways = campus.place->walkways();
    for (std::uint64_t sid = 1; sid <= n; ++sid) {
      const sim::Walkway& way = ways[(sid - 1) % ways.size()];
      server.submit(hello_frame(sid, way.line.points().front(), 0.0)).get();
      for (std::size_t e = 0; e < kWarmEpochs; ++e) {
        server.submit(epoch_frame(sid)).get();
      }
    }

    std::vector<double> latencies;
    std::vector<std::vector<std::uint8_t>> snap(1);
    for (std::size_t rep = 0; rep < kSnapshotReps; ++rep) {
      const double t0 = now_us();
      snap[0] = server.snapshot();
      latencies.push_back(now_us() - t0);
    }
    const double p50 = stats::percentile(latencies, 50.0);
    const double p99 = stats::percentile(latencies, 99.0);
    const double snap_bytes = static_cast<double>(snap[0].size());
    const double per_session = snap_bytes / static_cast<double>(n);

    svc::LocalizationServer cold(svc::ServerConfig{}, factory, nullptr);
    const double r0 = now_us();
    const bool ok = cold.restore(snap).ok;
    const double restore_us = now_us() - r0;
    if (!ok || cold.live_sessions() != n) {
      std::fprintf(stderr, "restore failed at n=%zu\n", n);
      return 1;
    }

    table.add_row({std::to_string(n), io::Table::num(per_session, 0),
                   io::Table::num(p50, 1), io::Table::num(p99, 1),
                   io::Table::num(restore_us, 1)});
    const std::string prefix = "n" + std::to_string(n) + "_";
    report.add_scalar(prefix + "snapshot_bytes", snap_bytes);
    report.add_scalar(prefix + "bytes_per_session", per_session);
    report.add_scalar(prefix + "snapshot_p50_us", p50);
    report.add_scalar(prefix + "snapshot_p99_us", p99);
    report.add_scalar(prefix + "restore_us", restore_us);
    report.add_series(prefix + "snapshot_us", latencies);
  }

  std::printf("Checkpoint cost (campus deployment, %zu warm epochs/session)\n",
              kWarmEpochs);
  std::printf("%s", table.to_string().c_str());

  // ---- delta section: wave chain vs full keyframes -------------------
  // Steady state at n=128: every round a rotating 1/4 of the population
  // advances by one epoch, then one delta wave is cut. The keyframe
  // baseline is the v1 (lossless f64) keyframe wave over the same
  // population; the delta figure is the quantized (v2) delta wave that
  // carries only the dirty quarter.
  {
    constexpr std::size_t kDeltaSessions = 128;
    constexpr std::size_t kActivePerRound = kDeltaSessions / 4;
    constexpr std::size_t kDeltaRounds = 16;

    svc::ServerConfig qcfg;
    qcfg.snapshot_quantize = true;
    svc::LocalizationServer server(qcfg, factory, nullptr);
    const auto& ways = campus.place->walkways();
    for (std::uint64_t sid = 1; sid <= kDeltaSessions; ++sid) {
      const sim::Walkway& way = ways[(sid - 1) % ways.size()];
      server.submit(hello_frame(sid, way.line.points().front(), 0.0)).get();
      for (std::size_t e = 0; e < kWarmEpochs; ++e) {
        server.submit(epoch_frame(sid)).get();
      }
    }

    // Lossless keyframe baseline over the identical state (same seeds).
    svc::LocalizationServer lossless(svc::ServerConfig{}, factory, nullptr);
    for (std::uint64_t sid = 1; sid <= kDeltaSessions; ++sid) {
      const sim::Walkway& way = ways[(sid - 1) % ways.size()];
      lossless.submit(hello_frame(sid, way.line.points().front(), 0.0))
          .get();
      for (std::size_t e = 0; e < kWarmEpochs; ++e) {
        lossless.submit(epoch_frame(sid)).get();
      }
    }
    const double keyframe_per_session =
        static_cast<double>(lossless.snapshot_wave(true).size()) /
        static_cast<double>(kDeltaSessions);

    std::vector<std::vector<std::uint8_t>> chain;
    chain.push_back(server.snapshot_wave(true));  // quantized anchor
    const double quant_keyframe_per_session =
        static_cast<double>(chain.back().size()) /
        static_cast<double>(kDeltaSessions);

    std::vector<double> wave_us;
    std::uint64_t delta_bytes = 0;
    for (std::size_t round = 0; round < kDeltaRounds; ++round) {
      for (std::size_t i = 0; i < kActivePerRound; ++i) {
        const std::uint64_t sid =
            1 + (round * kActivePerRound + i) % kDeltaSessions;
        server.submit(epoch_frame(sid)).get();
      }
      const double t0 = now_us();
      chain.push_back(server.snapshot_wave(false));
      wave_us.push_back(now_us() - t0);
      delta_bytes += chain.back().size();
    }
    const double delta_per_session =
        static_cast<double>(delta_bytes) /
        static_cast<double>(kDeltaRounds * kDeltaSessions);
    const double reduction = keyframe_per_session / delta_per_session;

    // The cheap waves must still be the durable artifact: restore a
    // cold server from the measured chain.
    svc::LocalizationServer cold(qcfg, factory, nullptr);
    const svc::LocalizationServer::ChainRestoreResult restored =
        cold.restore(chain);
    if (!restored.ok || restored.waves_rejected != 0 ||
        cold.live_sessions() != kDeltaSessions) {
      std::fprintf(stderr, "delta chain restore failed\n");
      return 1;
    }

    io::Table dt({"mode", "bytes/session"});
    dt.add_row({"keyframe (v1 f64)", io::Table::num(keyframe_per_session, 0)});
    dt.add_row({"keyframe (v2 quant)",
                io::Table::num(quant_keyframe_per_session, 0)});
    dt.add_row({"delta (v2, 1/4 dirty)",
                io::Table::num(delta_per_session, 0)});
    std::printf(
        "\nDelta chain (n=%zu, %zu rounds, %zu active/round, keyframe "
        "baseline)\n%sreduction vs full keyframes: %.1fx (floor 4.0x)\n",
        kDeltaSessions, kDeltaRounds, kActivePerRound,
        dt.to_string().c_str(), reduction);

    report.add_scalar("delta.keyframe_bytes_per_session",
                      keyframe_per_session);
    report.add_scalar("delta.quant_keyframe_bytes_per_session",
                      quant_keyframe_per_session);
    report.add_scalar("delta.delta_bytes_per_session", delta_per_session);
    report.add_scalar("delta.reduction_x", reduction);
    report.add_scalar("delta.wave_p50_us",
                      stats::percentile(wave_us, 50.0));
    report.add_scalar("delta.restore_ok", 1.0);
  }

  bench::report_json(report);
  return 0;
}
