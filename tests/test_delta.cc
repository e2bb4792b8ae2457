// Durable delta-checkpoint suite: the wave CRC, wave codec, chain
// collapse, torn-write fault injection, the async group committer, and
// the quantized particle codec (payload version 2).
//
// The load-bearing claims pinned here:
//   * a chain (keyframe + deltas of dirty sessions only) collapses to
//     the exact population -- a server restored through the chain
//     re-snapshots bit-identically and serves the same continuation;
//   * damage anywhere in the chain -- corrupt, truncated or missing
//     middle delta, a crash between any two steps of the publish
//     sequence -- fails LOUDLY (non-zero reject count) and falls back to
//     the longest valid prefix, never interleaving stale and fresh
//     state;
//   * the group committer batches publishes into one directory fsync,
//     reports backpressure without consuming the request, and demotes a
//     whole batch when the directory sync fails;
//   * the quantized codec restores within its error budget and is
//     requantization-exact: restore-then-resnapshot is byte-stable, so
//     chains may mix quantized keyframes and deltas indefinitely.
//
// scripts/check.sh runs this suite under ASan+UBSan (label `delta`) as
// the decoder-fuzz gate.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numbers>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "core/trainer.h"
#include "filter/particle_filter.h"
#include "geo/bbox.h"
#include "offload/bytes.h"
#include "offload/crc32.h"
#include "sim/builders.h"
#include "sim/virtual_clock.h"
#include "svc/committer.h"
#include "svc/delta.h"
#include "svc/epoch_codec.h"
#include "svc/fsio.h"
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

std::vector<std::uint8_t> bye_frame(std::uint64_t sid) {
  svc::Frame f;
  f.type = svc::FrameType::kBye;
  f.session_id = sid;
  return svc::encode_frame(f);
}

std::unique_ptr<svc::LocalizationServer> warm_server(
    svc::ServerConfig cfg = {}, std::size_t sessions = 2) {
  auto server = std::make_unique<svc::LocalizationServer>(
      std::move(cfg), factory_for(campus_deployment()), nullptr);
  for (std::uint64_t sid = 1; sid <= sessions; ++sid) {
    server->submit(hello_frame(sid, {1.0, 2.0}, 0.3)).get();
    for (int e = 0; e < 3; ++e) server->submit(epoch_frame(sid)).get();
  }
  return server;
}

/// Temp directory that cleans up after itself.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path("/tmp/uniloc_" + name + "_test") {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// ------------------------------------------------------------------ crc32

/// Bit-at-a-time CRC-32 straight from the reflected polynomial: the oracle
/// the table-driven crc32 must agree with.
std::uint32_t crc32_oracle(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> crc_test_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::mt19937_64 rng(31);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(offload::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                           check.size()),
            0xCBF43926u);
  EXPECT_EQ(offload::crc32(nullptr, 0), 0u);
}

TEST(Crc32, ChainsAtEverySplit) {
  const std::vector<std::uint8_t> bytes = crc_test_bytes(300);
  const std::uint32_t whole = offload::crc32(bytes.data(), bytes.size());
  for (std::size_t k = 0; k <= bytes.size(); ++k) {
    EXPECT_EQ(offload::crc32(bytes.data() + k, bytes.size() - k,
                             offload::crc32(bytes.data(), k)),
              whole)
        << "split at " << k;
  }
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndAlignment) {
  // Lengths 0-64 from start offsets 0-7 cover every tail length after
  // the eight-byte blocks, at every alignment of the block loads.
  const std::vector<std::uint8_t> bytes = crc_test_bytes(64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 64; ++n) {
      EXPECT_EQ(offload::crc32(bytes.data() + offset, n),
                crc32_oracle(bytes.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

// ------------------------------------------------------------- wave codec

TEST(WaveCodec, BuildDecodeRoundTrip) {
  svc::WaveHeader h;
  h.kind = svc::kWaveDelta;
  h.payload_version = svc::kPayloadLossless;
  h.seq = 9;
  h.parent_seq = 8;
  h.accepted_since_scan = 5;
  svc::WaveBuilder b(h, {3, 7, 11});
  offload::ByteWriter& w = b.begin_session(7, 1000, 4);
  w.put_u32(0xDEADBEEF);
  b.end_session();
  const std::vector<std::uint8_t> bytes = b.finish();

  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(bytes, v));
  EXPECT_EQ(v.header.kind, svc::kWaveDelta);
  EXPECT_EQ(v.header.seq, 9u);
  EXPECT_EQ(v.header.parent_seq, 8u);
  EXPECT_EQ(v.header.accepted_since_scan, 5u);
  EXPECT_EQ(v.members, (std::vector<std::uint64_t>{3, 7, 11}));
  ASSERT_EQ(v.records.size(), 1u);
  EXPECT_EQ(v.records[0].h.id, 7u);
  EXPECT_EQ(v.records[0].h.last_active_us, 1000u);
  EXPECT_EQ(v.records[0].h.epochs_served, 4u);
  EXPECT_EQ(v.records[0].h.payload_len, 4u);
}

TEST(WaveCodec, RejectsStructuralDamage) {
  svc::WaveHeader h;
  h.kind = svc::kWaveKeyframe;
  h.seq = 1;
  svc::WaveBuilder b(h, {5});
  b.begin_session(5, 0, 0).put_u8(1);
  b.end_session();
  const std::vector<std::uint8_t> good = b.finish();
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(good, v));

  // Any flipped bit breaks the CRC.
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    std::vector<std::uint8_t> bad = good;
    bad[byte] ^= 0x01;
    EXPECT_FALSE(svc::decode_wave(bad, v)) << "byte " << byte;
  }
  // Every truncation is rejected.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(svc::decode_wave(
        std::vector<std::uint8_t>(good.begin(), good.begin() + n), v))
        << "truncated to " << n;
  }
  EXPECT_FALSE(svc::decode_wave({}, v));
}

TEST(WaveCodec, RejectsInconsistentHeaders) {
  // Consistent CRC but hostile structure: rebuild whole waves.
  const auto build = [](std::uint8_t kind, std::uint64_t seq,
                        std::uint64_t parent,
                        std::vector<std::uint64_t> members,
                        std::vector<std::uint64_t> record_ids) {
    svc::WaveHeader h;
    h.kind = kind;
    h.seq = seq;
    h.parent_seq = parent;
    svc::WaveBuilder b(h, members);
    for (const std::uint64_t id : record_ids) {
      b.begin_session(id, 0, 0).put_u8(9);
      b.end_session();
    }
    return b.finish();
  };
  svc::WaveView v;
  // seq 0 is reserved.
  EXPECT_FALSE(svc::decode_wave(build(svc::kWaveKeyframe, 0, 0, {1}, {1}), v));
  // A keyframe must have parent 0.
  EXPECT_FALSE(svc::decode_wave(build(svc::kWaveKeyframe, 5, 4, {1}, {1}), v));
  // A delta's parent must precede it.
  EXPECT_FALSE(svc::decode_wave(build(svc::kWaveDelta, 5, 5, {1}, {1}), v));
  // A keyframe must carry every member's record.
  EXPECT_FALSE(
      svc::decode_wave(build(svc::kWaveKeyframe, 5, 0, {1, 2}, {1}), v));
  // A record outside the membership would resurrect a departed session.
  EXPECT_FALSE(svc::decode_wave(build(svc::kWaveDelta, 5, 4, {1}, {2}), v));
  // All valid shapes still pass.
  EXPECT_TRUE(svc::decode_wave(build(svc::kWaveDelta, 5, 4, {1, 2}, {2}), v));
}

/// `wave` with its format byte set to `format`, re-sealed behind a valid
/// CRC.
std::vector<std::uint8_t> with_format(std::vector<std::uint8_t> wave,
                                      std::uint8_t format) {
  wave[4] = format;  // after the u32 magic
  const std::size_t body = wave.size() - 4;
  const std::uint32_t crc = offload::crc32(wave.data(), body);
  for (std::size_t i = 0; i < 4; ++i) {
    wave[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return wave;
}

TEST(WaveCodec, ParentFormatWavesAreRejectedWholeAndLeaveThePopulation) {
  // A format-1 chain carries 2,508-byte engine records where format 2
  // carries the 16-byte generator field. Its waves must be rejected as
  // units on the version byte -- the records behind it are never parsed
  // -- and a restore from them must leave the live population alone.
  // The relabelled waves below carry format-2 records, which would
  // restore cleanly if only the version byte were ignored.
  std::unique_ptr<svc::LocalizationServer> source = warm_server();
  const std::vector<std::uint8_t> keyframe = source->snapshot_wave(true);
  source->submit(epoch_frame(1)).get();
  const std::vector<std::uint8_t> delta = source->snapshot_wave(false);
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(keyframe, v));
  ASSERT_TRUE(svc::decode_wave(delta, v));
  ASSERT_EQ(v.records.size(), 1u);
  ASSERT_EQ(with_format(delta, svc::kWaveFormatVersion), delta);

  const std::vector<std::vector<std::uint8_t>> parent_chain = {
      with_format(keyframe, 1), with_format(delta, 1)};
  for (const std::vector<std::uint8_t>& wave : parent_chain) {
    EXPECT_FALSE(svc::decode_wave(wave, v));
  }
  const svc::ChainCollapse chain = svc::collapse_chain(parent_chain);
  EXPECT_FALSE(chain.ok);
  EXPECT_EQ(chain.waves_rejected, 2u);
  EXPECT_TRUE(chain.records.empty());

  std::unique_ptr<svc::LocalizationServer> live = warm_server({}, 3);
  const std::vector<std::uint8_t> before = live->snapshot();
  const svc::LocalizationServer::ChainRestoreResult result =
      live->restore(parent_chain);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.waves_rejected, 2u);
  EXPECT_EQ(result.deltas_applied, 0u);
  EXPECT_EQ(live->live_sessions(), 3u);
  EXPECT_EQ(live->snapshot(), before);
  // The same two waves at the current format restore.
  EXPECT_TRUE(live->restore({keyframe, delta}).ok);
  EXPECT_EQ(live->live_sessions(), 2u);
}

TEST(WaveCodec, FuzzedBuffersNeverCrashTheDecoder) {
  svc::WaveHeader h;
  h.kind = svc::kWaveKeyframe;
  h.seq = 3;
  svc::WaveBuilder b(h, {1, 2});
  for (const std::uint64_t id : {1ull, 2ull}) {
    offload::ByteWriter& w = b.begin_session(id, 77, 8);
    for (int i = 0; i < 40; ++i) w.put_u8(static_cast<std::uint8_t>(i));
    b.end_session();
  }
  const std::vector<std::uint8_t> good = b.finish();

  std::mt19937_64 rng(11);
  svc::WaveView v;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::uint8_t> fuzzed;
    if (trial % 2 == 0) {
      // Mutations of a valid wave (1-4 byte edits).
      fuzzed = good;
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits; ++e) {
        fuzzed[rng() % fuzzed.size()] = static_cast<std::uint8_t>(rng());
      }
    } else {
      // Arbitrary garbage of arbitrary length.
      fuzzed.resize(rng() % 200);
      for (std::uint8_t& byte : fuzzed) {
        byte = static_cast<std::uint8_t>(rng());
      }
    }
    svc::decode_wave(fuzzed, v);  // surviving (no crash/UB) is the assert
  }
  ASSERT_TRUE(svc::decode_wave(good, v));
}

// ---------------------------------------------------------- chain collapse

/// A chain built from a live server: keyframe at seq 1, then `deltas`
/// delta waves with one extra epoch of traffic (session 1 only) before
/// each, so deltas genuinely carry a dirty subset.
struct LiveChain {
  std::unique_ptr<svc::LocalizationServer> server;
  std::vector<std::vector<std::uint8_t>> waves;
};

LiveChain build_live_chain(std::size_t deltas) {
  LiveChain c;
  c.server = warm_server();
  c.waves.push_back(c.server->snapshot_wave(/*keyframe=*/true));
  for (std::size_t i = 0; i < deltas; ++i) {
    c.server->submit(epoch_frame(1)).get();
    c.waves.push_back(c.server->snapshot_wave(/*keyframe=*/false));
  }
  return c;
}

TEST(ChainCollapse, DeltaChainRestoresBitIdentically) {
  LiveChain c = build_live_chain(3);

  // Deltas carry only the dirty session (2 never moved after the
  // keyframe), so the chain is genuinely incremental.
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(c.waves.back(), v));
  EXPECT_EQ(v.members.size(), 2u);
  ASSERT_EQ(v.records.size(), 1u);
  EXPECT_EQ(v.records[0].h.id, 1u);

  const svc::ChainCollapse collapsed = svc::collapse_chain(c.waves);
  ASSERT_TRUE(collapsed.ok);
  EXPECT_EQ(collapsed.deltas_applied, 3u);
  EXPECT_EQ(collapsed.waves_rejected, 0u);
  EXPECT_EQ(collapsed.seq, 4u);

  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);
  ASSERT_TRUE(b.restore(c.waves).ok);
  // The collapsed state IS the live state: both servers re-snapshot to
  // the same bytes and serve the same continuation.
  EXPECT_EQ(b.snapshot(), c.server->snapshot());
  for (std::uint64_t sid : {1ull, 2ull}) {
    for (int e = 0; e < 3; ++e) {
      EXPECT_EQ(b.submit(epoch_frame(sid)).get(),
                c.server->submit(epoch_frame(sid)).get())
          << "session " << sid << " epoch " << e;
    }
  }
}

TEST(ChainCollapse, MembershipPrunesDepartedSessions) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  std::vector<std::vector<std::uint8_t>> waves;
  waves.push_back(server->snapshot_wave(true));
  // Session 2 says bye; the next delta's membership drops it.
  server->submit(bye_frame(2)).get();
  server->submit(epoch_frame(1)).get();
  waves.push_back(server->snapshot_wave(false));

  const svc::ChainCollapse collapsed = svc::collapse_chain(waves);
  ASSERT_TRUE(collapsed.ok);
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);
  ASSERT_TRUE(b.restore(waves).ok);
  EXPECT_EQ(b.live_sessions(), 1u);
  EXPECT_EQ(b.snapshot(), server->snapshot());
}

TEST(ChainCollapse, CorruptMiddleDeltaCutsTheChainLoudly) {
  LiveChain c = build_live_chain(3);
  const svc::ChainCollapse full = svc::collapse_chain(c.waves);
  ASSERT_TRUE(full.ok);

  // Corrupt the middle delta (waves[2]): collapse must stop at waves[1]
  // and report BOTH the corrupt wave and the now-unlinked tail.
  auto corrupted = c.waves;
  corrupted[2][corrupted[2].size() / 2] ^= 0xFF;
  const svc::ChainCollapse cut = svc::collapse_chain(corrupted);
  ASSERT_TRUE(cut.ok);
  EXPECT_EQ(cut.deltas_applied, 1u);
  EXPECT_EQ(cut.waves_rejected, 2u);
  EXPECT_EQ(cut.seq, 2u);
  // The fallback state is the honest prefix, not an interleaving.
  svc::LocalizationServer from_cut(svc::ServerConfig{},
                                   factory_for(campus_deployment()), nullptr);
  svc::LocalizationServer from_prefix(
      svc::ServerConfig{}, factory_for(campus_deployment()), nullptr);
  ASSERT_TRUE(from_cut.restore(corrupted).ok);
  ASSERT_TRUE(from_prefix.restore({c.waves.begin(), c.waves.begin() + 2}).ok);
  EXPECT_EQ(from_cut.snapshot(), from_prefix.snapshot());
}

TEST(ChainCollapse, TruncatedMiddleDeltaCutsTheChainLoudly) {
  LiveChain c = build_live_chain(2);
  auto torn = c.waves;
  torn[1].resize(torn[1].size() / 2);  // torn write of the first delta
  const svc::ChainCollapse cut = svc::collapse_chain(torn);
  ASSERT_TRUE(cut.ok);
  EXPECT_EQ(cut.deltas_applied, 0u);
  EXPECT_EQ(cut.waves_rejected, 2u);
  EXPECT_EQ(cut.seq, 1u);  // back to the keyframe
}

TEST(ChainCollapse, MissingMiddleDeltaBreaksTheParentLink) {
  LiveChain c = build_live_chain(3);
  // Drop waves[2] entirely (the file vanished): waves[3]'s parent no
  // longer matches, so it must NOT be applied on top of waves[1].
  std::vector<std::vector<std::uint8_t>> gap = {c.waves[0], c.waves[1],
                                                c.waves[3]};
  const svc::ChainCollapse cut = svc::collapse_chain(gap);
  ASSERT_TRUE(cut.ok);
  EXPECT_EQ(cut.deltas_applied, 1u);
  EXPECT_EQ(cut.waves_rejected, 1u);
  EXPECT_EQ(cut.seq, 2u);
}

TEST(ChainCollapse, NoKeyframeMeansNoRestore) {
  LiveChain c = build_live_chain(2);
  const svc::ChainCollapse cut = svc::collapse_chain(
      {c.waves.begin() + 1, c.waves.end()});  // deltas only
  EXPECT_FALSE(cut.ok);
  EXPECT_EQ(svc::collapse_chain({}).ok, false);
}

TEST(ChainCollapse, NewestValidKeyframeWins) {
  std::unique_ptr<svc::LocalizationServer> server = warm_server();
  std::vector<std::vector<std::uint8_t>> waves;
  waves.push_back(server->snapshot_wave(true));
  server->submit(epoch_frame(1)).get();
  waves.push_back(server->snapshot_wave(false));
  server->submit(epoch_frame(2)).get();
  waves.push_back(server->snapshot_wave(true));  // re-anchor
  const svc::ChainCollapse collapsed = svc::collapse_chain(waves);
  ASSERT_TRUE(collapsed.ok);
  EXPECT_EQ(collapsed.seq, 3u);
  EXPECT_EQ(collapsed.deltas_applied, 0u);
  svc::LocalizationServer b(svc::ServerConfig{},
                            factory_for(campus_deployment()), nullptr);
  ASSERT_TRUE(b.restore(waves).ok);
  EXPECT_EQ(b.snapshot(), server->snapshot());
}

// ----------------------------------------------- publish-sequence crashes

/// FsOps wrapper recording the primitive sequence and optionally failing
/// at one scripted step.
struct RecordingFs {
  std::vector<std::string> ops;
  std::string fail_at;  // "", "write", "rename", "fsync_dir"

  svc::FsOps make() {
    const svc::FsOps real = svc::FsOps::real();
    svc::FsOps fs;
    fs.write_bytes = [this, real](const std::string& path,
                                  const std::uint8_t* data, std::size_t n) {
      ops.push_back("write");
      if (fail_at == "write") return false;
      return real.write_bytes(path, data, n);
    };
    fs.rename_file = [this, real](const std::string& from,
                                  const std::string& to) {
      ops.push_back("rename");
      if (fail_at == "rename") return false;
      return real.rename_file(from, to);
    };
    fs.fsync_dir = [this, real](const std::string& dir) {
      ops.push_back("fsync_dir");
      if (fail_at == "fsync_dir") return false;
      return real.fsync_dir(dir);
    };
    fs.remove_file = [this, real](const std::string& path) {
      ops.push_back("remove");
      return real.remove_file(path);
    };
    return fs;
  }
};

TEST(PublishSequence, DirectoryFsyncFollowsRenameRegression) {
  // The PR-5 write path renamed and returned: a crash after rename could
  // lose the directory entry. Pin the full ordered sequence.
  TempDir dir("fsio_order");
  RecordingFs rec;
  ASSERT_TRUE(svc::atomic_publish(rec.make(), dir.path, "ckpt.bin",
                                  {1, 2, 3}));
  ASSERT_EQ(rec.ops,
            (std::vector<std::string>{"write", "rename", "fsync_dir"}));
}

TEST(PublishSequence, CrashAtEveryStepLeavesARecoverableChain) {
  // Chain of keyframe + 1 delta on disk; publishing delta #2 dies at
  // each primitive in turn. Whatever survives on disk, load + collapse
  // must restore the newest DURABLE state and never a torn one.
  LiveChain c = build_live_chain(2);
  for (const std::string step : {"write", "rename", "fsync_dir"}) {
    TempDir dir("torn_" + step);
    ASSERT_TRUE(svc::write_wave_file(dir.path, 1, c.waves[0]));
    ASSERT_TRUE(svc::write_wave_file(dir.path, 2, c.waves[1]));
    RecordingFs rec;
    rec.fail_at = step;
    EXPECT_FALSE(svc::write_wave_file(dir.path, 3, c.waves[2], rec.make()))
        << step;
    if (step == "fsync_dir") {
      // The rename happened but its durability is unknown: model the
      // worst case (directory entry lost in the crash).
      std::filesystem::remove(dir.path + "/" + svc::wave_file_name(3));
    }
    svc::LocalizationServer b(svc::ServerConfig{},
                              factory_for(campus_deployment()), nullptr);
    const svc::LocalizationServer::ChainRestoreResult r =
        b.restore(svc::load_wave_files(dir.path));
    EXPECT_TRUE(r.ok) << step;
    EXPECT_EQ(r.seq, 2u) << step;
    EXPECT_EQ(r.waves_rejected, 0u) << step;
    // No half-written garbage lingers where a later scan would load it.
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path)) {
      EXPECT_NE(entry.path().extension(), ".bin.tmp") << step;
    }
  }
}

TEST(PublishSequence, TornFileOnDiskFallsBackToKeyframe) {
  LiveChain c = build_live_chain(1);
  TempDir dir("torn_disk");
  ASSERT_TRUE(svc::write_wave_file(dir.path, 1, c.waves[0]));
  std::vector<std::uint8_t> torn = c.waves[1];
  torn.resize(torn.size() - 7);
  ASSERT_TRUE(svc::write_wave_file(dir.path, 2, torn));
  const svc::ChainCollapse collapsed =
      svc::collapse_chain(svc::load_wave_files(dir.path));
  ASSERT_TRUE(collapsed.ok);
  EXPECT_EQ(collapsed.seq, 1u);
  EXPECT_EQ(collapsed.waves_rejected, 1u);  // loud, not silent
}

// ----------------------------------------------------- server chain e2e

TEST(ServerChain, PeriodicWavesRestoreTheExactServerAcrossRestart) {
  TempDir dir("server_chain");
  sim::VirtualClock clock;
  svc::ServerConfig cfg;
  cfg.now_us = clock.now_fn();
  cfg.checkpoint_period_us = 1;  // every submit round checks the clock
  cfg.checkpoint_dir = dir.path;
  cfg.keyframe_interval = 4;
  svc::LocalizationServer a(cfg, factory_for(campus_deployment()), nullptr);
  for (std::uint64_t sid : {1ull, 2ull, 3ull}) {
    a.submit(hello_frame(sid, {1.0, 2.0}, 0.3)).get();
  }
  for (int e = 0; e < 10; ++e) {
    for (std::uint64_t sid : {1ull, 2ull, 3ull}) {
      a.submit(epoch_frame(sid)).get();
    }
    clock.advance_us(1'000'000);
  }
  const svc::LocalizationServer::CheckpointStats st = a.checkpoint_stats();
  EXPECT_GT(st.waves, 4u);
  EXPECT_GT(st.keyframes, 0u);
  EXPECT_GT(st.delta_records, 0u);
  EXPECT_EQ(st.publish_failures, 0u);

  // Clean shutdown: flush the epochs the periodic path hasn't seen yet
  // (it fires on the NEXT submit, and there is none after the last round).
  a.checkpoint_wave_now();

  // "Restart": a fresh process restores from the directory alone.
  svc::ServerConfig bcfg;
  bcfg.checkpoint_dir = dir.path;
  svc::LocalizationServer b(bcfg, factory_for(campus_deployment()), nullptr);
  const svc::LocalizationServer::ChainRestoreResult r = b.restore_chain();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.waves_rejected, 0u);
  EXPECT_EQ(b.live_sessions(), 3u);
  EXPECT_EQ(b.snapshot(), a.snapshot());
  for (std::uint64_t sid : {1ull, 2ull, 3ull}) {
    EXPECT_EQ(b.submit(epoch_frame(sid)).get(),
              a.submit(epoch_frame(sid)).get());
  }
}

TEST(ServerChain, KeyframePrunesTheSupersededPrefix) {
  TempDir dir("server_prune");
  sim::VirtualClock clock;
  svc::ServerConfig cfg;
  cfg.now_us = clock.now_fn();
  cfg.checkpoint_period_us = 1;
  cfg.checkpoint_dir = dir.path;
  cfg.keyframe_interval = 3;
  svc::LocalizationServer a(cfg, factory_for(campus_deployment()), nullptr);
  a.submit(hello_frame(1, {1.0, 2.0}, 0.3)).get();
  for (int e = 0; e < 12; ++e) {
    a.submit(epoch_frame(1)).get();
    clock.advance_us(1'000'000);
  }
  // Only the newest keyframe and its deltas remain on disk.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    (void)entry;
    ++files;
  }
  EXPECT_LE(files, cfg.keyframe_interval);
  EXPECT_GE(files, 1u);
  const svc::ChainCollapse collapsed =
      svc::collapse_chain(svc::load_wave_files(dir.path));
  ASSERT_TRUE(collapsed.ok);
  EXPECT_EQ(collapsed.waves_rejected, 0u);
}

TEST(ServerChain, RestartReanchorsAboveEveryWaveFileOnDisk) {
  // Failed publishes left gaps in the seqs: waves 3 and 4 never reached
  // the disk, delta 5 (parent 4) did. The first restart restores 1 + 2,
  // rejects 5, takes a new session and re-anchors with a keyframe. That
  // keyframe must outrank wave 5 so that its prune removes it; the
  // second restart then restores exactly the first one's state.
  LiveChain c = build_live_chain(4);  // keyframe 1, deltas 2..5
  TempDir dir("server_stale");
  for (const std::uint64_t seq : {1u, 2u, 5u}) {
    ASSERT_TRUE(svc::write_wave_file(dir.path, seq, c.waves[seq - 1]));
  }
  svc::ServerConfig cfg;
  cfg.checkpoint_dir = dir.path;
  std::vector<std::uint8_t> expected;
  {
    svc::LocalizationServer a(cfg, factory_for(campus_deployment()), nullptr);
    const svc::LocalizationServer::ChainRestoreResult r = a.restore_chain();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.deltas_applied, 1u);
    EXPECT_EQ(r.waves_rejected, 1u);
    a.submit(hello_frame(3, {1.0, 2.0}, 0.3)).get();
    a.checkpoint_wave_now();
    expected = a.snapshot();
  }
  EXPECT_EQ(svc::load_wave_files(dir.path).size(), 1u);
  svc::LocalizationServer b(cfg, factory_for(campus_deployment()), nullptr);
  const svc::LocalizationServer::ChainRestoreResult r = b.restore_chain();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.deltas_applied, 0u);
  EXPECT_EQ(r.waves_rejected, 0u);
  EXPECT_EQ(b.live_sessions(), 3u);
  EXPECT_EQ(b.snapshot(), expected);
}

TEST(ServerChain, GroupCommitterPathMatchesSynchronousPath) {
  TempDir dir("server_gc");
  sim::VirtualClock clock;
  svc::GroupCommitter committer;
  svc::ServerConfig cfg;
  cfg.now_us = clock.now_fn();
  cfg.checkpoint_period_us = 1;
  cfg.checkpoint_dir = dir.path;
  cfg.keyframe_interval = 4;
  cfg.committer = &committer;
  {
    svc::LocalizationServer a(cfg, factory_for(campus_deployment()),
                              nullptr);
    a.submit(hello_frame(1, {1.0, 2.0}, 0.3)).get();
    for (int e = 0; e < 8; ++e) {
      a.submit(epoch_frame(1)).get();
      clock.advance_us(1'000'000);
    }
    a.checkpoint_wave_now();  // flush the tail epoch onto the chain
    committer.flush();
    const svc::GroupCommitter::Stats st = committer.stats();
    EXPECT_GT(st.committed, 0u);
    EXPECT_EQ(st.failed, 0u);

    svc::ServerConfig bcfg;
    bcfg.checkpoint_dir = dir.path;
    svc::LocalizationServer b(bcfg, factory_for(campus_deployment()),
                              nullptr);
    ASSERT_TRUE(b.restore_chain().ok);
    EXPECT_EQ(b.snapshot(), a.snapshot());
  }
}

/// Committer write hook that parks the group-commit thread inside
/// write_bytes while `hold` is set, so a test can pin waves at known
/// points of the publish path: one held in its write, the next queued
/// behind it and not yet filled.
struct WriteGate {
  std::mutex mu;
  std::condition_variable cv;
  bool hold{false};
  bool stalled{false};
  bool fail{false};  ///< Held writes fail once released.

  svc::FsOps ops() {
    const svc::FsOps real = svc::FsOps::real();
    svc::FsOps fs;
    fs.write_bytes = [this, real](const std::string& path,
                                  const std::uint8_t* data, std::size_t n) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (hold) {
          stalled = true;
          cv.notify_all();
          cv.wait(lock, [this] { return !hold; });
          stalled = false;
          if (fail) return false;
        }
      }
      return real.write_bytes(path, data, n);
    };
    return fs;
  }
  void set_hold(bool on) {
    {
      std::lock_guard<std::mutex> lock(mu);
      hold = on;
    }
    cv.notify_all();
  }
  bool held() {
    std::lock_guard<std::mutex> lock(mu);
    return hold;
  }
  void await_stalled() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return stalled; });
  }
  /// Lets the held write go from another thread once `ready()` holds
  /// (polled, for at most 10 s) and `delay` has passed.
  std::thread release_when(std::function<bool()> ready,
                           std::chrono::milliseconds delay) {
    return std::thread([this, ready = std::move(ready), delay] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!ready() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(delay);
      set_hold(false);
    });
  }
};

svc::ServerConfig threaded_chain_config(const std::string& dir,
                                        svc::GroupCommitter& committer) {
  svc::ServerConfig cfg;
  cfg.workers = 2;
  cfg.checkpoint_dir = dir;
  cfg.committer = &committer;
  return cfg;
}

TEST(ServerChain, ServerDestroyedWithAFailingWavePendingIsSafe) {
  // The committer calls back into the server that queued a wave: it
  // fills it, then books the publish outcome. Here the write blocks
  // until released and then fails, and the server is destroyed while
  // it blocks -- the destructor must wait for the failure to be booked.
  TempDir dir("server_teardown");
  WriteGate gate;
  gate.hold = true;
  gate.fail = true;
  svc::GroupCommitter committer({.ops = gate.ops()});
  std::unique_ptr<svc::LocalizationServer> server =
      warm_server(threaded_chain_config(dir.path, committer));
  server->checkpoint_wave_now();
  gate.await_stalled();
  std::thread releaser =
      gate.release_when([] { return true; }, std::chrono::milliseconds(50));
  server.reset();
  const bool released_before_destroyed = !gate.held();
  releaser.join();
  EXPECT_TRUE(released_before_destroyed);
  committer.flush();
  EXPECT_EQ(committer.stats().failed, 1u);
}

TEST(ServerChain, WavesQueuedBeforeACrashCarryThePreCrashPopulation) {
  // A keyframe is held in its write and a delta queued behind it, not
  // yet filled, when the server crashes. crash() waits for both, so the
  // delta is filled from the sessions the crash is about to drop, and a
  // restart restores them all.
  TempDir dir("server_crash");
  WriteGate gate;
  gate.hold = true;
  svc::GroupCommitter committer({.ops = gate.ops()});
  std::unique_ptr<svc::LocalizationServer> server =
      warm_server(threaded_chain_config(dir.path, committer));
  server->checkpoint_wave_now();
  gate.await_stalled();
  server->submit(epoch_frame(1)).get();
  server->checkpoint_wave_now();
  const std::vector<std::uint8_t> before = server->snapshot();
  std::thread releaser =
      gate.release_when([] { return true; }, std::chrono::milliseconds(50));
  server->crash();
  releaser.join();
  EXPECT_EQ(server->live_sessions(), 0u);
  committer.flush();

  svc::ServerConfig bcfg;
  bcfg.checkpoint_dir = dir.path;
  svc::LocalizationServer b(bcfg, factory_for(campus_deployment()), nullptr);
  const svc::LocalizationServer::ChainRestoreResult r = b.restore_chain();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.deltas_applied, 1u);
  EXPECT_EQ(r.waves_rejected, 0u);
  EXPECT_EQ(b.snapshot(), before);
}

TEST(ServerChain, WaveTriggerNeverWaitsForABusySession) {
  // Session 1 is held inside its epoch (the on_epoch hook blocks), so a
  // wave cannot quiesce it. Session 2's next epoch crosses the
  // checkpoint period: its submit() only triggers the wave, returns, and
  // its reply arrives while session 1 is still held. A watchdog releases
  // session 1 after 5 s, so a trigger that waits fails instead of
  // hanging.
  TempDir dir("server_busy");
  sim::VirtualClock clock;
  svc::GroupCommitter committer;
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool released = false;
  svc::ServerConfig cfg = threaded_chain_config(dir.path, committer);
  cfg.now_us = clock.now_fn();
  cfg.checkpoint_period_us = 1;
  cfg.on_epoch = [&](std::uint64_t sid, const core::EpochDecision&) {
    if (sid != 1) return;
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  svc::LocalizationServer server(cfg, factory_for(campus_deployment()),
                                 nullptr);
  server.submit(hello_frame(1, {1.0, 2.0}, 0.3)).get();
  server.submit(hello_frame(2, {1.0, 2.0}, 0.3)).get();
  std::future<std::vector<std::uint8_t>> a = server.submit(epoch_frame(1));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held; });
  }
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return released; });
    released = true;
    cv.notify_all();
  });
  clock.advance_us(1);  // session 2's epoch triggers the wave
  std::future<std::vector<std::uint8_t>> b = server.submit(epoch_frame(2));
  const bool b_replied =
      b.wait_for(std::chrono::seconds(4)) == std::future_status::ready;
  bool a_still_held;
  {
    std::lock_guard<std::mutex> lock(mu);
    a_still_held = !released;
    released = true;
  }
  cv.notify_all();
  watchdog.join();
  EXPECT_TRUE(b_replied);
  EXPECT_TRUE(a_still_held);
  a.get();
  b.get();
  committer.flush();
  const svc::LocalizationServer::CheckpointStats st = server.checkpoint_stats();
  EXPECT_EQ(st.waves, 1u);
  EXPECT_EQ(st.keyframe_records, 2u);
  EXPECT_GT(st.keyframe_fill_us, 0u);
}

TEST(ServerChain, ThreadedWavesRestoreTheExactServer) {
  // Waves filled on the committer thread while two workers serve epochs
  // and sessions come and go must still collapse to the exact server.
  // The write gate holds the committer mid-write: once so a session
  // leaves and re-joins under the same id while waves that carry it are
  // pending, once so the queue (capacity 1) overflows and a wave falls
  // back to filling on the caller.
  TempDir dir("server_threaded");
  sim::VirtualClock clock;
  WriteGate gate;
  svc::GroupCommitter committer({.queue_capacity = 1, .ops = gate.ops()});
  svc::ServerConfig cfg = threaded_chain_config(dir.path, committer);
  cfg.now_us = clock.now_fn();
  cfg.checkpoint_period_us = 1;
  cfg.keyframe_interval = 4;
  svc::LocalizationServer a(cfg, factory_for(campus_deployment()), nullptr);
  // Every submit crosses the checkpoint period and triggers a wave,
  // unless `wave` is false.
  const auto submit = [&](std::vector<std::uint8_t> frame, bool wave = true) {
    if (wave) clock.advance_us(1);
    return a.submit(std::move(frame));
  };
  // Hold the next write once the committer is idle, so the next wave is
  // accepted and is the one held.
  const auto hold_next_write = [&] {
    committer.flush();
    gate.set_hold(true);
  };

  std::vector<std::uint64_t> live = {1, 2, 3, 4};
  std::uint64_t next_id = 5;
  for (const std::uint64_t sid : live) {
    submit(hello_frame(sid, {1.0, 2.0}, 0.3)).get();
  }
  for (int round = 0; round < 12; ++round) {
    std::vector<std::future<std::vector<std::uint8_t>>> replies;
    for (const std::uint64_t sid : live) {
      replies.push_back(submit(epoch_frame(sid)));
    }
    for (auto& r : replies) r.get();
    if (round % 3 == 2) {  // the oldest session leaves, a new one joins
      submit(bye_frame(live.front())).get();
      live.erase(live.begin());
      submit(hello_frame(next_id, {2.0, 1.0}, 0.7)).get();
      live.push_back(next_id++);
    }
    if (round == 6) {
      // Bye and re-hello of one id while two waves that carry it are
      // pending: the first was filled before the bye and is held in its
      // write, the second is queued and fills after the re-hello.
      hold_next_write();
      submit(epoch_frame(live[0])).get();
      gate.await_stalled();
      submit(epoch_frame(live[1])).get();
      submit(bye_frame(live[0]), false).get();
      submit(hello_frame(live[0], {3.0, 1.0}, 1.1), false).get();
      submit(epoch_frame(live[0]), false).get();
      gate.set_hold(false);
    }
    if (round == 11) {
      // Last round, so no later epoch hides a stale record. One wave is
      // held in its write and one queued behind it, so the next trigger
      // finds the queue full. It must wait for both before it fills on
      // the caller. Filling first, it would clean the dirty live[2],
      // whose epoch in that same submit re-dirties it for the older
      // queued wave to serialize at the later state, and the restore
      // would take the newer wave's older record. The held write goes
      // 20 ms after the fallback began, time for that epoch to run.
      hold_next_write();
      submit(epoch_frame(live[0])).get();
      gate.await_stalled();
      submit(epoch_frame(live[1])).get();
      submit(epoch_frame(live[2]), false).get();
      std::thread releaser = gate.release_when(
          [&a] { return a.checkpoint_stats().sync_fallbacks > 0; },
          std::chrono::milliseconds(20));
      submit(epoch_frame(live[2])).get();
      releaser.join();
    }
  }
  committer.flush();
  const std::uint64_t keyframes = a.checkpoint_stats().keyframes;
  a.checkpoint_wave_now();
  committer.flush();
  const svc::LocalizationServer::CheckpointStats st = a.checkpoint_stats();
  // The final wave must be a delta: a keyframe would re-serialize every
  // session and hide a stale record.
  EXPECT_EQ(st.keyframes, keyframes);
  EXPECT_GT(st.sync_fallbacks, 0u);
  EXPECT_EQ(st.publish_failures, 0u);

  svc::ServerConfig bcfg;
  bcfg.checkpoint_dir = dir.path;
  svc::LocalizationServer b(bcfg, factory_for(campus_deployment()), nullptr);
  const svc::LocalizationServer::ChainRestoreResult r = b.restore_chain();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.waves_rejected, 0u);
  EXPECT_EQ(b.live_sessions(), live.size());
  EXPECT_EQ(b.snapshot(), a.snapshot());
}

// --------------------------------------------------------- group committer

TEST(GroupCommitter, BatchesShareOneDirectoryFsync) {
  TempDir dir("gc_batch");
  std::mutex mu;
  std::condition_variable cv;
  bool first_started = false;
  bool release_first = false;
  int fsyncs = 0;

  const svc::FsOps real = svc::FsOps::real();
  svc::GroupCommitter::Options opts;
  opts.ops.write_bytes = [&](const std::string& path,
                             const std::uint8_t* data, std::size_t n) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (!first_started) {
        first_started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release_first; });
      }
    }
    return real.write_bytes(path, data, n);
  };
  opts.ops.fsync_dir = [&](const std::string& d) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++fsyncs;
    }
    return real.fsync_dir(d);
  };

  svc::GroupCommitter gc(opts);
  const auto req = [&](const std::string& name) {
    svc::GroupCommitter::Request r;
    r.dir = dir.path;
    r.name = name;
    r.bytes = {1, 2, 3};
    return r;
  };
  ASSERT_TRUE(gc.enqueue(req("a.bin")));
  {
    // Wait until the committer is mid-batch on "a", then pile up four
    // more requests behind it.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_started; });
  }
  for (const std::string name : {"b.bin", "c.bin", "d.bin", "e.bin"}) {
    ASSERT_TRUE(gc.enqueue(req(name)));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release_first = true;
  }
  cv.notify_all();
  gc.flush();

  const svc::GroupCommitter::Stats st = gc.stats();
  EXPECT_EQ(st.committed, 5u);
  EXPECT_EQ(st.batches, 2u);     // "a" alone, then the parked four
  EXPECT_EQ(st.max_batch, 4u);
  EXPECT_EQ(fsyncs, 2);          // ONE dir fsync per batch, not per file
  for (const std::string name : {"a.bin", "b.bin", "c.bin", "d.bin",
                                 "e.bin"}) {
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/" + name)) << name;
  }
}

TEST(GroupCommitter, BackpressureLeavesTheRequestIntact) {
  TempDir dir("gc_bp");
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;

  const svc::FsOps real = svc::FsOps::real();
  svc::GroupCommitter::Options opts;
  opts.queue_capacity = 1;
  opts.ops.write_bytes = [&](const std::string& path,
                             const std::uint8_t* data, std::size_t n) {
    {
      std::unique_lock<std::mutex> lock(mu);
      started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return real.write_bytes(path, data, n);
  };

  svc::GroupCommitter gc(opts);
  svc::GroupCommitter::Request a;
  a.dir = dir.path;
  a.name = "a.bin";
  a.bytes = {1};
  ASSERT_TRUE(gc.enqueue(std::move(a)));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  svc::GroupCommitter::Request b;
  b.dir = dir.path;
  b.name = "b.bin";
  b.bytes = {2};
  ASSERT_TRUE(gc.enqueue(std::move(b)));  // fills the queue (capacity 1)

  svc::GroupCommitter::Request c;
  c.dir = dir.path;
  c.name = "c.bin";
  c.bytes = {3, 4, 5};
  ASSERT_FALSE(gc.enqueue(std::move(c)));
  // The refused request is untouched: the caller can fall back to a
  // synchronous publish without re-serializing the wave.
  EXPECT_EQ(c.name, "c.bin");
  EXPECT_EQ(c.bytes, (std::vector<std::uint8_t>{3, 4, 5}));
  ASSERT_TRUE(svc::atomic_publish(svc::FsOps{}, c.dir, c.name, c.bytes));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  gc.flush();
  const svc::GroupCommitter::Stats st = gc.stats();
  EXPECT_EQ(st.committed, 2u);
  EXPECT_EQ(st.rejected, 1u);
  for (const std::string name : {"a.bin", "b.bin", "c.bin"}) {
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/" + name)) << name;
  }
}

TEST(GroupCommitter, FailedDirectorySyncDemotesTheWholeBatch) {
  TempDir dir("gc_demote");
  svc::GroupCommitter::Options opts;
  opts.ops.fsync_dir = [](const std::string&) { return false; };
  std::mutex mu;
  std::vector<bool> outcomes;
  {
    svc::GroupCommitter gc(opts);
    for (int i = 0; i < 3; ++i) {
      svc::GroupCommitter::Request r;
      r.dir = dir.path;
      r.name = "f" + std::to_string(i) + ".bin";
      r.bytes = {9};
      r.done = [&mu, &outcomes](bool ok) {
        std::lock_guard<std::mutex> lock(mu);
        outcomes.push_back(ok);
      };
      ASSERT_TRUE(gc.enqueue(std::move(r)));
    }
    gc.flush();
  }
  ASSERT_EQ(outcomes.size(), 3u);
  for (const bool ok : outcomes) EXPECT_FALSE(ok);
}

TEST(GroupCommitter, DestructorDrainsEverythingAccepted) {
  TempDir dir("gc_drain");
  {
    svc::GroupCommitter gc;
    for (int i = 0; i < 16; ++i) {
      svc::GroupCommitter::Request r;
      r.dir = dir.path;
      r.name = "w" + std::to_string(i) + ".bin";
      r.bytes = {static_cast<std::uint8_t>(i)};
      ASSERT_TRUE(gc.enqueue(std::move(r)));
    }
  }  // destructor joins after draining
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/w" + std::to_string(i) +
                                        ".bin"))
        << i;
  }
}

// ------------------------------------------------------- quantized codec

filter::ParticleFilter warm_filter(std::uint64_t seed) {
  filter::ParticleFilter f(128, seed);
  filter::KernelScratch scratch;
  f.init({40.0, 60.0}, 0.7, 0.8, 6.0, 0.4);
  for (int i = 0; i < 5; ++i) f.predict(0.7, 0.1, 0.12, 0.035, scratch);
  f.resample(scratch, 1.0);
  // Leave non-uniform weights behind.
  f.predict(0.7, -0.2, 0.12, 0.035, scratch);
  return f;
}

TEST(QuantizedCodec, RoundTripStaysWithinTheErrorBudget) {
  filter::ParticleFilter a = warm_filter(5);
  geo::BBox venue;
  venue.extend({0.0, 0.0});
  venue.extend({100.0, 100.0});

  offload::ByteWriter w;
  a.snapshot_into_quantized(w, venue);
  const std::vector<std::uint8_t> bytes = w.take();
  // ~10 bytes per particle vs ~40 lossless: the 4x comes from here.
  EXPECT_LT(bytes.size(), 128 * 12 + 3000);

  filter::ParticleFilter b(128, 999);
  offload::ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(b.restore_from_quantized(r));
  EXPECT_EQ(r.remaining(), 0u);

  // Grid: venue inflated by 64 m -> 228 m range -> half-step ~1.75 mm.
  const double pos_step = 228.0 / 65536.0;
  const double heading_step = 2.0 * std::numbers::pi / 65536.0;
  double w_max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    w_max = std::max(w_max, a.particle(i).weight);
  }
  ASSERT_GT(w_max, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const filter::Particle pa = a.particle(i);
    const filter::Particle pb = b.particle(i);
    EXPECT_NEAR(pa.pos.x, pb.pos.x, pos_step) << i;
    EXPECT_NEAR(pa.pos.y, pb.pos.y, pos_step) << i;
    EXPECT_NEAR(pa.heading, pb.heading, heading_step) << i;
    EXPECT_NEAR(pa.weight / w_max, pb.weight / w_max, 1.0 / 65535.0) << i;
  }
}

TEST(QuantizedCodec, RequantizationIsByteStable) {
  filter::ParticleFilter a = warm_filter(6);
  geo::BBox venue;
  venue.extend({0.0, 0.0});
  venue.extend({100.0, 100.0});

  offload::ByteWriter w1;
  a.snapshot_into_quantized(w1, venue);
  const std::vector<std::uint8_t> first = w1.take();

  filter::ParticleFilter b(128, 999);
  offload::ByteReader r(first.data(), first.size());
  ASSERT_TRUE(b.restore_from_quantized(r));

  // Quantize(dequantize(q)) == q for every field, so a chain of
  // quantized waves never drifts: generation 2 equals generation 1.
  offload::ByteWriter w2;
  b.snapshot_into_quantized(w2, venue);
  EXPECT_EQ(w2.take(), first);
}

TEST(QuantizedCodec, MaxWeightParticleRestoresExactly) {
  filter::ParticleFilter a = warm_filter(7);
  double w_max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    w_max = std::max(w_max, a.particle(i).weight);
  }
  geo::BBox venue;
  venue.extend({0.0, 0.0});
  venue.extend({100.0, 100.0});
  offload::ByteWriter w;
  a.snapshot_into_quantized(w, venue);
  const std::vector<std::uint8_t> bytes = w.take();
  filter::ParticleFilter b(128, 999);
  offload::ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(b.restore_from_quantized(r));
  double restored_max = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    restored_max = std::max(restored_max, b.particle(i).weight);
  }
  // q = 65535 -> ratio exactly 1.0 -> w_max bit-exact; the cloud can
  // never come back all-zero.
  EXPECT_EQ(restored_max, w_max);
}

TEST(QuantizedCodec, HostileInputIsRejectedWithoutTouchingState) {
  filter::ParticleFilter a = warm_filter(8);
  geo::BBox venue;
  venue.extend({0.0, 0.0});
  venue.extend({50.0, 50.0});
  offload::ByteWriter w;
  a.snapshot_into_quantized(w, venue);
  const std::vector<std::uint8_t> good = w.take();

  filter::ParticleFilter b(128, 999);
  b.init({9.0, 9.0}, 1.0, 0.5, 0.05, 0.05);
  const double before_x = b.particle(0).pos.x;

  // Every truncation fails cleanly.
  for (std::size_t n = 0; n < good.size(); n += 3) {
    offload::ByteReader r(good.data(), n);
    EXPECT_FALSE(b.restore_from_quantized(r)) << "truncated to " << n;
  }
  // Non-finite grid parameters are hostile (they would denormalize every
  // particle): x_lo lives right after the u32 count.
  std::vector<std::uint8_t> bad = good;
  for (int i = 0; i < 8; ++i) bad[4 + i] = 0xFF;  // x_lo = NaN pattern
  {
    offload::ByteReader r(bad.data(), bad.size());
    EXPECT_FALSE(b.restore_from_quantized(r));
  }
  // Count mismatch (filter has 128 particles, stream says 127).
  bad = good;
  bad[0] = 127;
  {
    offload::ByteReader r(bad.data(), bad.size());
    EXPECT_FALSE(b.restore_from_quantized(r));
  }
  EXPECT_EQ(b.particle(0).pos.x, before_x);  // rejected without commit

  // Bit-flip fuzz: never crash, state only replaced on full success.
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> fuzzed = good;
    fuzzed[rng() % fuzzed.size()] ^=
        static_cast<std::uint8_t>(1u << (rng() % 8));
    offload::ByteReader r(fuzzed.data(), fuzzed.size());
    b.restore_from_quantized(r);  // surviving is the assert
  }
  offload::ByteReader r(good.data(), good.size());
  ASSERT_TRUE(b.restore_from_quantized(r));
}

// ------------------------------------------------ quantized server chains

TEST(QuantizedChain, ServerWaveIsSmallerAndRequantizationStable) {
  svc::ServerConfig qcfg;
  qcfg.snapshot_quantize = true;
  std::unique_ptr<svc::LocalizationServer> a = warm_server(qcfg);
  const std::vector<std::uint8_t> wave = a->snapshot_wave(true);
  svc::WaveView v;
  ASSERT_TRUE(svc::decode_wave(wave, v));
  EXPECT_EQ(v.header.payload_version, svc::kPayloadQuantized);

  // The quantized wave must be dramatically smaller than the lossless
  // one (the particle arrays shrink 4x; the rest of the payload stays
  // exact -- the checkpoint bench reports the per-session numbers).
  std::unique_ptr<svc::LocalizationServer> plain = warm_server();
  const std::vector<std::uint8_t> lossless = plain->snapshot_wave(true);
  EXPECT_LT(wave.size(), lossless.size() * 2 / 3);

  // Restore from the quantized chain, then re-wave: byte-stable. Both
  // next waves continue the sequence at seq 2.
  svc::LocalizationServer b(qcfg, factory_for(campus_deployment()), nullptr);
  ASSERT_TRUE(b.restore({wave}).ok);
  EXPECT_EQ(b.live_sessions(), 2u);
  EXPECT_EQ(b.snapshot_wave(true), a->snapshot_wave(true));
}

}  // namespace
}  // namespace uniloc
