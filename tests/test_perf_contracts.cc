// Performance contracts of the fast epoch pipeline.
//
// Three families of guarantees, enforced rather than documented:
//
//   1. Allocation contracts. The test binary replaces global operator
//      new/delete with a counting hook; after a warmup walk segment has
//      grown every scratch buffer to steady capacity, one call of
//      Uniloc::update_fast must perform ZERO heap allocations -- same for
//      a steady-state ParticleFilter predict/reweight/resample cycle. The
//      hook is compiled out under ASan/TSan/MSan (the sanitizer runtimes
//      own the allocator there); those configurations skip the counting
//      tests and keep the cache-semantics tests.
//
//   2. Likelihood-cache semantics. Cached k-nearest answers are bitwise
//      equal to the exact reference; blend_reading invalidates the cache
//      (stale tables must never serve); invalidated queries fall back to
//      the exact path and are counted as misses; a rebuilt cache serves
//      hits again.
//
//   3. Epoch-arena contracts. One arena serves many sessions in turn, as
//      a service worker's does: their decisions match solo runs bit for
//      bit, memo slots recycle across deployments, and no scheme keeps
//      the epoch context once the epoch is over (DESIGN.md section 11).
#include <gtest/gtest.h>

#include <execinfo.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "core/epoch_scratch.h"
#include "core/runner.h"
#include "core/trainer.h"
#include "filter/particle_filter.h"
#include "offload/bytes.h"
#include "schemes/fingerprint_db.h"
#include "schemes/scheme.h"
#include "sim/builders.h"
#include "sim/walker.h"
#include "stats/simd.h"
#include "svc/session_manager.h"
#include "svc/thread_pool.h"
#include "testing_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UNILOC_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define UNILOC_ALLOC_COUNTING 0
#else
#define UNILOC_ALLOC_COUNTING 1
#endif
#else
#define UNILOC_ALLOC_COUNTING 1
#endif

#if UNILOC_ALLOC_COUNTING

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

// Debug aid: with UNILOC_ALLOC_TRAP=1 in the environment, the first
// steady-state allocation dumps a backtrace and aborts, turning an
// "N allocation(s) in epoch E" failure into an actionable stack
// (symbolize the offsets with addr2line -e <binary>).
std::atomic<bool> g_trap{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (g_trap.load(std::memory_order_relaxed)) {
      void* frames[64];
      const int n = backtrace(frames, 64);
      backtrace_symbols_fd(frames, n, 2);
      std::abort();
    }
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // UNILOC_ALLOC_COUNTING

namespace uniloc {
namespace {

#if UNILOC_ALLOC_COUNTING
std::uint64_t begin_counting() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  return 0;
}

std::uint64_t end_counting() {
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}
#endif

const core::TrainedModels& test_models() {
  return testing_util::standard_models(100);
}

#if UNILOC_ALLOC_COUNTING

TEST(PerfContracts, UpdateFastIsAllocationFreeAfterWarmup) {
  // The office venue is fully indoor: GPS stays duty-cycled off and the
  // scheme availability pattern stabilizes within a handful of epochs, so
  // every buffer hits steady capacity during the warmup prefix. A second
  // session -- its own ensemble seed, another walk of the loop -- then
  // runs on the arena the first one warmed, as a service worker does with
  // every session after its first. Its steady epochs must allocate
  // nothing either: the arena never regrows for a new session.
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  core::EpochScratch scratch;
  constexpr std::size_t kWarmupEpochs = 25;

  const auto walk = [&](std::uint64_t ensemble_seed, std::uint64_t walk_seed) {
    core::Uniloc uniloc =
        core::make_uniloc(d, test_models(), {}, false, ensemble_seed);
    sim::Walker walker(d.place.get(), d.radio.get(), 0,
                       sim::WalkConfig{.seed = walk_seed});
    uniloc.reset({walker.start_position(), walker.start_heading()});

    std::vector<std::uint64_t> allocs_per_epoch;
    allocs_per_epoch.reserve(1 << 14);
    while (!walker.done()) {
      const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
      if (std::getenv("UNILOC_ALLOC_TRAP") != nullptr &&
          allocs_per_epoch.size() >= kWarmupEpochs) {
        g_trap.store(true, std::memory_order_relaxed);
      }
      begin_counting();
      uniloc.update_fast(frame, scratch);
      allocs_per_epoch.push_back(end_counting());
    }
    g_trap.store(false, std::memory_order_relaxed);
    return allocs_per_epoch;
  };

  for (const std::uint64_t session : {1u, 2u}) {
    const std::vector<std::uint64_t> allocs = walk(6 + session, session);
    ASSERT_GT(allocs.size(), 2 * kWarmupEpochs)
        << "walk too short to measure a steady state";
    for (std::size_t e = kWarmupEpochs; e < allocs.size(); ++e) {
      EXPECT_EQ(allocs[e], 0u)
          << allocs[e] << " allocation(s) in steady-state epoch " << e
          << " of session " << session;
    }
  }
  // The zeros above must come from reuse, not from an empty arena.
  EXPECT_GT(scratch.bytes(), 0u);
}

TEST(PerfContracts, ReferenceUpdateAllocatesProvingTheHookWorks) {
  // Guard against a silently-disabled hook: update() builds a fresh
  // scratch and copies the decision out every epoch, and the counter must
  // see those allocations.
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  core::Uniloc uniloc = core::make_uniloc(d, test_models());

  sim::Walker walker(d.place.get(), d.radio.get(), 0, sim::WalkConfig{});
  uniloc.reset({walker.start_position(), walker.start_heading()});

  std::uint64_t total = 0;
  for (int e = 0; e < 30 && !walker.done(); ++e) {
    const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
    begin_counting();
    const core::EpochDecision dec = uniloc.update(frame);
    total += end_counting();
    ASSERT_FALSE(dec.outputs.empty());
  }
  EXPECT_GT(total, 0u);
}

TEST(PerfContracts, ParticleFilterCycleIsAllocationFreeInSteadyState) {
  // Two filters of different sizes take turns with one kernel scratch,
  // the way the schemes of every session a worker serves share its
  // arena. Resampling copies the gathered arrays back instead of swapping
  // buffers, so no buffer changes owner and neither filter ever finds a
  // staging buffer too small for it.
  filter::ParticleFilter a(300, /*seed=*/99);
  filter::ParticleFilter b(240, /*seed=*/98);
  a.init({5.0, 5.0}, 0.3, 0.8, 0.08, 0.07);
  b.init({-5.0, 2.0}, 1.1, 0.8, 0.08, 0.07);
  filter::KernelScratch scratch;

  const auto cycle = [&scratch](filter::ParticleFilter& pf) {
    pf.predict(0.7, 0.01, 0.12, 0.035, scratch);
    pf.reweight([](const filter::Particle& p) {
      return p.pos.x > 0.0 ? 1.0 : 0.5;
    });
    pf.resample(scratch, /*ess_threshold_fraction=*/1.0);
  };
  // Warmup: let the resampling pick/gather scratch reach capacity.
  for (int i = 0; i < 3; ++i) {
    cycle(a);
    cycle(b);
  }

  begin_counting();
  for (int i = 0; i < 50; ++i) {
    cycle(a);
    cycle(b);
  }
  const std::uint64_t allocs = end_counting();
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(scratch.bytes(), 0u);
}

#else  // !UNILOC_ALLOC_COUNTING

TEST(PerfContracts, AllocationCountingSkippedUnderSanitizers) {
  GTEST_SKIP() << "operator new hook disabled under sanitizers";
}

#endif  // UNILOC_ALLOC_COUNTING

// ------------------------------------------------- likelihood cache

std::vector<sim::ApReading> scan_from_fingerprint(
    const schemes::FingerprintDatabase& db, std::size_t index) {
  std::vector<sim::ApReading> scan;
  for (const auto& [id, rssi] : db.fingerprints()[index].rssi) {
    scan.push_back({id, rssi + 1.5});  // offset: not an exact hit
  }
  return scan;
}

TEST(PerfContracts, CachedMatchesAreBitwiseEqualToReference) {
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  schemes::FingerprintDatabase& db = *d.wifi_db;
  ASSERT_TRUE(db.likelihood_cache_ready())
      << "make_deployment must prebuild the likelihood cache";
  EXPECT_GT(db.likelihood_cache_bytes(), 0u);

  schemes::ScanScratch scratch;
  std::vector<schemes::Match> cached;
  for (std::size_t i = 0; i < db.size(); i += 7) {
    const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, i);
    const std::vector<schemes::Match> ref = db.k_nearest(scan, 20);
    db.k_nearest_into(scan, 20, scratch, cached);
    ASSERT_EQ(ref.size(), cached.size()) << "query " << i;
    for (std::size_t m = 0; m < ref.size(); ++m) {
      EXPECT_EQ(ref[m].index, cached[m].index) << "query " << i;
      EXPECT_EQ(ref[m].distance, cached[m].distance) << "query " << i;
    }
  }
  EXPECT_GT(scratch.cache_hits, 0u);
  EXPECT_EQ(scratch.cache_misses, 0u);
}

TEST(PerfContracts, BlendReadingInvalidatesTheCache) {
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  schemes::FingerprintDatabase& db = *d.wifi_db;
  ASSERT_TRUE(db.likelihood_cache_ready());

  const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, 0);
  schemes::ScanScratch scratch;
  std::vector<schemes::Match> got;

  db.k_nearest_into(scan, 5, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 1u);

  // Crowdsourced maintenance touches a fingerprint: the precomputed
  // tables are stale now and must not serve.
  const int some_id = db.fingerprints()[0].rssi.begin()->first;
  db.blend_reading(0, some_id, -40.0, 0.5);
  EXPECT_FALSE(db.likelihood_cache_ready());

  // The fallback answers exactly like the post-blend reference and is
  // accounted as a miss.
  db.k_nearest_into(scan, 5, scratch, got);
  EXPECT_EQ(scratch.cache_misses, 1u);
  const std::vector<schemes::Match> ref = db.k_nearest(scan, 5);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t m = 0; m < ref.size(); ++m) {
    EXPECT_EQ(ref[m].index, got[m].index);
    EXPECT_EQ(ref[m].distance, got[m].distance);
  }

  // Rebuilding restores cached service with the blended values baked in.
  db.prebuild_likelihood_cache();
  ASSERT_TRUE(db.likelihood_cache_ready());
  db.k_nearest_into(scan, 5, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 2u);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t m = 0; m < ref.size(); ++m) {
    EXPECT_EQ(ref[m].index, got[m].index);
    EXPECT_EQ(ref[m].distance, got[m].distance);
  }
}

TEST(PerfContracts, BlendReadingInvalidatesTheSharedBatchTables) {
  // The SIMD batch-scoring path reads the column-major mirrors that
  // prebuild_likelihood_cache derives from the fingerprints. A deployment
  // mutation (crowdsourced blend) must invalidate them along with the
  // row-major tables: the next vector query falls back to the exact
  // reference path and never serves a stale column.
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  schemes::FingerprintDatabase& db = *d.wifi_db;
  ASSERT_TRUE(db.likelihood_cache_ready());

  const stats::ScopedSimd on(true);
  const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, 2);
  schemes::ScanScratch scratch;
  std::vector<double> got;
  db.all_distances_into(scan, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 1u);

  const int some_id = db.fingerprints()[2].rssi.begin()->first;
  db.blend_reading(2, some_id, -35.0, 0.5);
  ASSERT_FALSE(db.likelihood_cache_ready());

  db.all_distances_into(scan, scratch, got);
  EXPECT_EQ(scratch.cache_misses, 1u);
  const std::vector<double> ref = db.all_distances(scan);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "fingerprint " << i;
  }

  // A rebuilt cache serves the blended values from the vector path.
  db.prebuild_likelihood_cache();
  db.all_distances_into(scan, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 2u);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "fingerprint " << i;
  }
}

TEST(PerfContracts, AllDistancesIntoMatchesReference) {
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  const schemes::FingerprintDatabase& db = *d.wifi_db;

  const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, 3);
  const std::vector<double> ref = db.all_distances(scan);
  schemes::ScanScratch scratch;
  std::vector<double> got;
  db.all_distances_into(scan, scratch, got);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "fingerprint " << i;
  }
}

// ------------------------------------------------- epoch dispatch

#if UNILOC_ALLOC_COUNTING

TEST(PerfContracts, SessionInboxSteadyStateIsAllocationFree) {
  // Once a burst has grown a session's inbox ring to capacity, queueing
  // and draining further bursts must not allocate: the ring recycles its
  // slots (a std::deque would allocate a node every ~16 tasks).
  svc::Session session(1, nullptr);  // plain closures: no Uniloc needed
  std::uint64_t ran = 0;
  const auto one_burst = [&] {
    for (int t = 0; t < 6; ++t) {
      // Pointer-capture lambda: fits std::function's small-buffer slot.
      session.enqueue([&ran] { ++ran; }, /*capacity=*/8, /*now_us=*/0);
    }
    session.drain();
  };
  for (int warmup = 0; warmup < 3; ++warmup) one_burst();
  begin_counting();
  for (int i = 0; i < 20; ++i) one_burst();
  EXPECT_EQ(end_counting(), 0u);
  EXPECT_EQ(ran, 23u * 6u);
}

#endif  // UNILOC_ALLOC_COUNTING

TEST(PerfContracts, BatchAssemblyNeverReordersEpochsWithinASession) {
  // The server's own dispatch on two workers: a session's first pending
  // task schedules its drain on the pool, exactly as
  // LocalizationServer::handle_epoch does. Interleaved bursts from
  // several sessions must each run in exact submission order -- the
  // strand + kStartDrain handshake, not timing, is what guarantees it.
  constexpr std::size_t kSessions = 3;
  constexpr int kEpochs = 200;
  svc::ThreadPool pool({.workers = 2, .queue_capacity = 1024});
  std::vector<svc::SessionPtr> sessions;
  std::vector<std::vector<int>> seen(kSessions);
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    // The tasks are plain closures: the Uniloc is never touched.
    sessions.push_back(std::make_shared<svc::Session>(id + 1, nullptr));
    seen[id].reserve(kEpochs);
  }
  for (int e = 0; e < kEpochs; ++e) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      // The strand serializes a session's tasks, so its `seen` vector is
      // only ever appended from one worker at a time.
      std::vector<int>* log = &seen[s];
      const svc::SessionPtr session = sessions[s];
      for (;;) {
        const svc::Session::Enqueue rc = session->enqueue(
            [log, e] { log->push_back(e); }, /*capacity=*/8, /*now_us=*/0);
        if (rc == svc::Session::Enqueue::kStartDrain) {
          ASSERT_TRUE(pool.post([session] { session->drain(); }));
        }
        if (rc != svc::Session::Enqueue::kBackpressure) break;
        // Inbox full: wait for the workers to catch up, then retry so
        // every epoch is delivered (the ordering check needs all 200).
        std::this_thread::yield();
      }
    }
  }
  pool.shutdown();
  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(seen[s].size(), static_cast<std::size_t>(kEpochs))
        << "session " << s;
    for (int e = 0; e < kEpochs; ++e) {
      ASSERT_EQ(seen[s][e], e) << "session " << s << " position " << e;
    }
  }
}

// ------------------------------------- cross-session isolation audit

/// A user-integrated scheme (family kOther) that reports its start point
/// every epoch. Placed where the standard ensemble runs the Motion
/// filter, it hands its output slot a one-point posterior and no
/// observables where other sessions leave 300 particles behind.
class AnchorScheme final : public schemes::LocalizationScheme {
 public:
  std::string name() const override { return "Anchor"; }
  schemes::SchemeFamily family() const override {
    return schemes::SchemeFamily::kOther;
  }
  void reset(const schemes::StartCondition& start) override {
    anchor_ = start.pos;
  }
  // Reports `available`, so it writes every field a consumer reads.
  void update_into(const sim::SensorFrame&,
                   schemes::SchemeOutput& out) override {
    out.available = true;
    out.estimate = anchor_;
    out.posterior.support.assign(1, {anchor_, 1.0});
    out.observables.clear();
  }

 private:
  geo::Vec2 anchor_;
};

/// The consumer-visible part of one decision.
struct Fix {
  geo::Vec2 uniloc1, uniloc2;
  double tau{0.0};
  int selected{-1};
  std::vector<double> confidence, weight;
  bool gps_enable_next{false};
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_fix(const Fix& a, const Fix& b, const std::string& where) {
  EXPECT_EQ(bits(a.uniloc1.x), bits(b.uniloc1.x)) << where;
  EXPECT_EQ(bits(a.uniloc1.y), bits(b.uniloc1.y)) << where;
  EXPECT_EQ(bits(a.uniloc2.x), bits(b.uniloc2.x)) << where;
  EXPECT_EQ(bits(a.uniloc2.y), bits(b.uniloc2.y)) << where;
  EXPECT_EQ(bits(a.tau), bits(b.tau)) << where;
  EXPECT_EQ(a.selected, b.selected) << where;
  EXPECT_EQ(a.gps_enable_next, b.gps_enable_next) << where;
  ASSERT_EQ(a.confidence.size(), b.confidence.size()) << where;
  ASSERT_EQ(a.weight.size(), b.weight.size()) << where;
  for (std::size_t i = 0; i < a.confidence.size(); ++i) {
    EXPECT_EQ(bits(a.confidence[i]), bits(b.confidence[i]))
        << where << " scheme " << i;
    EXPECT_EQ(bits(a.weight[i]), bits(b.weight[i]))
        << where << " scheme " << i;
  }
}

TEST(PerfContracts, InterleavedSessionsMatchSoloRunsBitwise) {
  // Cross-session leakage regression at the granularity the service
  // runs: one worker thread's epoch arena serves every session it picks
  // up. Sessions share a deployment's read-only tables (likelihood cache
  // + column-major SIMD mirrors, env index, walkway graph) and, through
  // the arena, every per-epoch buffer: ScanScratch, ScanMemo, the scheme
  // and particle-filter kernel buffers, and the decision's output slots.
  // Running all eight campus paths round-robin through ONE EpochScratch
  // must reproduce each session's solo run bit for bit -- if a shared
  // table were secretly mutable per query, a memo could serve another
  // session, or a kernel read a buffer before rewriting it, the streams
  // would diverge. A ninth session runs a kOther scheme in the slot the
  // others fill from the Motion filter, so slot payloads cross scheme
  // types as well as sessions.
  core::Deployment d = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});
  const std::size_t paths = d.place->walkways().size();
  ASSERT_EQ(paths, 8u);

  struct Lane {
    sim::Walker walker;
    core::Uniloc uniloc;
    bool gps{true};
    std::vector<Fix> fixes;
  };
  // Lane k < 8 walks campus path k with the standard ensemble; lane 8
  // walks path 0 with AnchorScheme in place of Motion.
  const auto make_lane = [&](std::size_t k) {
    const std::uint64_t seed = 7 + k;
    core::Uniloc uniloc(core::UnilocConfig{.place = d.place.get(),
                                           .wifi_db = d.wifi_db.get(),
                                           .cell_db = d.cell_db.get()});
    std::vector<schemes::SchemePtr> schemes =
        core::make_standard_schemes(d, false, seed);
    if (k == paths) {
      EXPECT_EQ(schemes[3]->family(), schemes::SchemeFamily::kMotionPdr);
      schemes[3] = std::make_unique<AnchorScheme>();
    }
    for (schemes::SchemePtr& s : schemes) {
      const schemes::SchemeFamily f = s->family();
      uniloc.add_scheme(std::move(s),
                        f == schemes::SchemeFamily::kOther
                            ? core::ErrorModel::constant(6.0, 2.0)
                            : test_models().for_family(f));
    }
    // Direct aggregate-init on the heap: Lane's members need not be
    // movable (guaranteed elision into the members).
    auto lane = std::unique_ptr<Lane>(
        new Lane{sim::Walker(d.place.get(), d.radio.get(), k % paths,
                             sim::WalkConfig{.seed = seed}),
                 std::move(uniloc), /*gps=*/true, /*fixes=*/{}});
    lane->uniloc.reset(
        {lane->walker.start_position(), lane->walker.start_heading()});
    return lane;
  };
  const auto step = [](Lane& lane, core::EpochScratch& scratch) {
    if (lane.walker.done()) return false;
    const sim::SensorFrame f = lane.walker.step(lane.gps);
    const core::EpochDecision& dec = lane.uniloc.update_fast(f, scratch);
    lane.gps = lane.uniloc.gps_enabled();
    lane.fixes.push_back({dec.uniloc1, dec.uniloc2, dec.tau, dec.selected,
                          dec.confidence, dec.weight, dec.gps_enable_next});
    return true;
  };

  // Solo passes: each session on an arena of its own.
  std::vector<std::unique_ptr<Lane>> solo, shared;
  for (std::size_t k = 0; k <= paths; ++k) {
    solo.push_back(make_lane(k));
    core::EpochScratch own;
    while (step(*solo.back(), own)) {
    }
  }

  // Shared pass: every session round-robin through one arena.
  core::EpochScratch arena;
  for (std::size_t k = 0; k <= paths; ++k) shared.push_back(make_lane(k));
  for (bool more = true; more;) {
    more = false;
    for (const std::unique_ptr<Lane>& lane : shared) {
      more |= step(*lane, arena);
    }
  }

  for (std::size_t k = 0; k <= paths; ++k) {
    ASSERT_EQ(shared[k]->fixes.size(), solo[k]->fixes.size()) << "lane " << k;
    for (std::size_t e = 0; e < solo[k]->fixes.size(); ++e) {
      expect_same_fix(shared[k]->fixes[e], solo[k]->fixes[e],
                      "lane " + std::to_string(k) + " epoch " +
                          std::to_string(e));
    }
  }
}

// ------------------------------------------- arena lifetime contracts

TEST(PerfContracts, EpochArenaRecyclesMemoSlotsAcrossDeployments) {
  // An arena outlives deployments (a service worker serves whatever
  // arrives; the property-test harness builds a deployment per case), so
  // memo slots must not stay bound to databases of earlier epochs. Three
  // deployments -- six databases, more than the four memo slots -- take
  // turns on one arena; every query must still be served by the shared
  // memo, never by a scheme's private unmemoized scratch.
  std::vector<core::Deployment> deployments;
  for (std::uint64_t seed : {42u, 43u, 44u}) {
    deployments.push_back(core::make_deployment(
        sim::office_place(seed), core::DeploymentOptions{.seed = seed}));
  }
  core::EpochScratch arena;
  for (int round = 0; round < 2; ++round) {
    for (const core::Deployment& d : deployments) {
      core::Uniloc uniloc = core::make_uniloc(d, test_models());
      sim::Walker walker(d.place.get(), d.radio.get(), 0, sim::WalkConfig{});
      uniloc.reset({walker.start_position(), walker.start_heading()});
      const std::uint64_t memo_queries =
          arena.cache_hits() + arena.cache_misses();
      for (int e = 0; e < 10 && !walker.done(); ++e) {
        uniloc.update_fast(walker.step(uniloc.gps_enabled()), arena);
      }
      EXPECT_EQ(uniloc.scheme_cache_hits() + uniloc.scheme_cache_misses(),
                0u)
          << "a scheme fell back to its private scratch";
      EXPECT_GT(arena.cache_hits() + arena.cache_misses(), memo_queries);
    }
  }
}

TEST(PerfContracts, UpdateFastLeavesNoDanglingEpochContext) {
  // A worker's arena dies with its thread while the sessions it served
  // live on. update_fast installs the arena's epoch context into the
  // schemes for the epoch only, so after the arena is gone a direct
  // update_into must run on the scheme's private scratch -- not read the
  // freed memo (the ASan tier reports that as a use-after-free).
  const core::Deployment& d = testing_util::office_deployment();
  core::Uniloc uniloc(core::UnilocConfig{.place = d.place.get(),
                                         .wifi_db = d.wifi_db.get(),
                                         .cell_db = d.cell_db.get()});
  std::vector<schemes::LocalizationScheme*> raw;
  for (schemes::SchemePtr& s : core::make_standard_schemes(d)) {
    raw.push_back(s.get());
    const schemes::SchemeFamily f = s->family();
    uniloc.add_scheme(std::move(s), test_models().for_family(f));
  }
  sim::Walker walker(d.place.get(), d.radio.get(), 0, sim::WalkConfig{});
  uniloc.reset({walker.start_position(), walker.start_heading()});
  {
    auto arena = std::make_unique<core::EpochScratch>();
    uniloc.update_fast(walker.step(uniloc.gps_enabled()), *arena);
  }
  ASSERT_EQ(uniloc.scheme_cache_hits() + uniloc.scheme_cache_misses(), 0u);

  const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
  ASSERT_FALSE(frame.wifi.empty());
  for (schemes::LocalizationScheme* s : raw) {
    const schemes::SchemeFamily f = s->family();
    if (f != schemes::SchemeFamily::kWifiFingerprint &&
        f != schemes::SchemeFamily::kFusion) {
      continue;
    }
    schemes::SchemeOutput out;
    s->update_into(frame, out);
    EXPECT_EQ(s->cache_hits() + s->cache_misses(), 1u)
        << s->name() << " did not query through its private scratch";
  }
}

}  // namespace
}  // namespace uniloc
