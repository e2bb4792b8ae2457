// Differential harness, tolerance-free (EXPECT_EQ on doubles, never
// EXPECT_NEAR):
//
//   * kernel oracles: environment_at_fast against environment_at on
//     every builder venue and generated ones; the map constraint's
//     vector kernel against its scalar lambda; k_nearest_memo and
//     k_nearest_into against k_nearest on recorded campus scans; each
//     standard scheme's update_into with the epoch context against none;
//   * worker count: the service under seeded chaos at workers 0 and 4.
//
// If an optimization ever reorders an FP sum or consumes one extra RNG
// draw, the first diverging value is reported here, not as a mysterious
// accuracy regression three benches later.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/deployment.h"
#include "core/runner.h"
#include "core/trainer.h"
#include "fault/link.h"
#include "fault/plan.h"
#include "offload/bytes.h"
#include "schemes/epoch_context.h"
#include "schemes/pdr_scheme.h"
#include "sim/builders.h"
#include "sim/walker.h"
#include "stats/rng.h"
#include "stats/simd.h"
#include "stats/vecmath.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "testing_util.h"

namespace uniloc {
namespace {

const core::TrainedModels& test_models() { return testing_util::standard_models(100); }

const core::Deployment& campus_deployment() {
  static const core::Deployment d = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});
  return d;
}

const core::Deployment& office_deployment() {
  return testing_util::office_deployment();
}

/// Bitwise double equality, treating NaN == NaN.
void expect_same(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << what;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------------------------------------------------------- kernel oracles

/// Every LocalEnvironment field, doubles as bit patterns.
auto env_fields(const sim::LocalEnvironment& e) {
  return std::tuple(e.type, e.indoor, e.walkway, bits(e.corridor_width_m),
                    bits(e.sky_visibility), bits(e.arclen),
                    bits(e.distance_to_walkway));
}

/// The env-index oracles' venues: the five builder venues, then 24
/// generated ones whose shapes are drawn from `rng`.
std::vector<sim::Place> oracle_venues(stats::Rng& rng) {
  std::vector<sim::Place> venues = {sim::campus(42), sim::office_place(42),
                                    sim::open_space_place(42),
                                    sim::mall_place(42), sim::campus_b(1234)};
  for (int i = 0; i < 24; ++i) {
    sim::RandomPlaceSpec spec;
    spec.seed = 1000 + static_cast<std::uint64_t>(i);
    spec.walkways = rng.uniform_int(1, 4);
    spec.legs_per_walkway = rng.uniform_int(1, 6);
    spec.leg_length_m = rng.uniform(4.0, 60.0);
    spec.venue_mix = i % 4;
    venues.push_back(sim::random_place(spec));
  }
  return venues;
}

TEST(KernelOracle, EnvIndexMatchesEnvironmentAtOnEveryVenue) {
  stats::Rng rng(0xE5F);
  std::vector<sim::Place> venues = oracle_venues(rng);
  std::size_t probes = 0, safe_hits = 0;
  for (std::size_t v = 0; v < venues.size(); ++v) {
    const sim::Place& place = venues[v];
    place.prebuild_env_index();
    // The indexed lookup must equal the full scan field by field, and a
    // corridor-safe verdict must hold under the full scan.
    const auto probe = [&](geo::Vec2 p) {
      ++probes;
      const sim::LocalEnvironment ref = place.environment_at(p);
      EXPECT_EQ(env_fields(ref), env_fields(place.environment_at_fast(p)))
          << "venue " << v << " at (" << p.x << ", " << p.y << ")";
      if (place.corridor_safe_fast(p)) {
        ++safe_hits;
        EXPECT_LE(ref.distance_to_walkway, ref.corridor_width_m / 2.0)
            << "venue " << v << " at (" << p.x << ", " << p.y << ")";
      }
    };
    // ~200k grid points over the index box and a 10 m rim, then random
    // points over a 30 m rim (off-index fallbacks included).
    const geo::BBox rim = place.bounds().inflated(10.0);
    const double step =
        std::max(0.1, std::sqrt(rim.width() * rim.height() / 200'000.0));
    for (double y = rim.min.y; y <= rim.max.y; y += step) {
      for (double x = rim.min.x; x <= rim.max.x; x += step) probe({x, y});
    }
    const geo::BBox wide = place.bounds().inflated(30.0);
    for (int k = 0; k < 50'000; ++k) {
      probe({rng.uniform(wide.min.x, wide.max.x),
             rng.uniform(wide.min.y, wide.max.y)});
    }
    if (HasFailure()) return;  // one venue's report is enough
  }
  EXPECT_GT(probes, 5'000'000u);
  EXPECT_GT(safe_hits, 0u) << "no probe ever took the corridor-safe branch";
}

/// A filter holding exactly `pts`, with uneven weights, planted through
/// the snapshot codec.
filter::ParticleFilter planted_filter(const std::vector<geo::Vec2>& pts) {
  const std::size_t n = pts.size();
  offload::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(n));
  for (const geo::Vec2& p : pts) w.put_f64(p.x);
  for (const geo::Vec2& p : pts) w.put_f64(p.y);
  for (std::size_t i = 0; i < n; ++i) w.put_f64(0.0);  // headings
  for (std::size_t i = 0; i < n; ++i) w.put_f64(1.0);  // step scales
  for (std::size_t i = 0; i < n; ++i) {
    w.put_f64(1.0 + static_cast<double>(i % 7) / 7.0);
  }
  w.put_u64(0);  // generator key
  w.put_u64(0);  // block counter
  filter::ParticleFilter f(n, /*seed=*/1);
  offload::ByteReader r(w.bytes());
  EXPECT_TRUE(f.restore_from(r));
  return f;
}

TEST(KernelOracle, MapConstraintKernelMatchesScalarLambda) {
  using View = sim::Place::EnvView;
  constexpr double kSlack = 2.5;
  constexpr double kFine = 0.5;  // the index's fine cell
  stats::Rng rng(0x3A9);
  std::vector<sim::Place> venues = oracle_venues(rng);
  std::size_t coded_cells = 0, coded_probes = 0;
  std::size_t by_code[3] = {0, 0, 0};  // general, safe, unique-edge particles
  for (std::size_t v = 0; v < venues.size(); ++v) {
    const sim::Place& place = venues[v];
    place.prebuild_env_index();
    const View view = place.env_view();
    const geo::BBox box = place.bounds();  // the index box
    const auto nfx = static_cast<std::size_t>(std::ceil(box.width() / kFine));
    const auto nfy = static_cast<std::size_t>(std::ceil(box.height() / kFine));

    // The coded edge at random points of every unique-edge cell, and at
    // the cell's corners, against the full scan.
    std::vector<geo::Vec2> boundary;  // corners of coded cells
    for (std::size_t fy = 0; fy < nfy; ++fy) {
      for (std::size_t fx = 0; fx < nfx; ++fx) {
        const double x0 = box.min.x + static_cast<double>(fx) * kFine;
        const double y0 = box.min.y + static_cast<double>(fy) * kFine;
        const std::uint32_t cell =
            view.fine_cell({x0 + 0.5 * kFine, y0 + 0.5 * kFine});
        if (view.code(cell) < View::kFirstEdge) continue;
        ++coded_cells;
        if (boundary.size() < 4000) {
          boundary.push_back({x0, y0});
          boundary.push_back({x0 + kFine, y0 + kFine});
        }
        for (int k = 0; k < 6; ++k) {
          const geo::Vec2 p =
              k < 2 ? geo::Vec2{k == 0 ? x0 : x0 + kFine, y0 + kFine}
                    : geo::Vec2{x0 + rng.uniform(0.0, kFine),
                                y0 + rng.uniform(0.0, kFine)};
          ++coded_probes;
          const sim::LocalEnvironment ref = place.environment_at(p);
          const sim::LocalEnvironment got =
              view.environment(p, view.fine_cell(p));
          // Distance and corridor width included, as bit patterns.
          EXPECT_EQ(env_fields(ref), env_fields(got))
              << "venue " << v << " at (" << p.x << ", " << p.y << ")";
        }
      }
    }

    // A cloud over the index box and a 30 m rim (off-box particles),
    // plus coded-cell corners, points on fine-cell lines and on the box
    // edges, and non-finite positions.
    std::vector<geo::Vec2> cloud = boundary;
    const geo::BBox wide = box.inflated(30.0);
    for (int k = 0; k < 3000; ++k) {
      cloud.push_back({rng.uniform(wide.min.x, wide.max.x),
                       rng.uniform(wide.min.y, wide.max.y)});
      const double gx = box.min.x +
                        std::floor(rng.uniform(0.0, box.width() / kFine)) * kFine;
      cloud.push_back({gx, rng.uniform(box.min.y, box.max.y)});
    }
    cloud.push_back(box.min);
    cloud.push_back(box.max);
    cloud.push_back({box.max.x, box.min.y});
    cloud.push_back({std::numeric_limits<double>::infinity(), box.min.y});
    cloud.push_back({std::numeric_limits<double>::quiet_NaN(), 0.0});
    for (const geo::Vec2& p : cloud) {
      const std::uint8_t code = view.code(view.fine_cell(p));
      ++by_code[std::min<std::uint8_t>(code, View::kFirstEdge)];
    }

    // The reference: the scalar lambda over the full scan.
    filter::ParticleFilter ref = planted_filter(cloud);
    ref.reweight([&place](const filter::Particle& p) {
      const sim::LocalEnvironment env = place.environment_at(p.pos);
      const double beyond =
          std::max(0.0, env.distance_to_walkway - env.corridor_width_m / 2.0);
      if (beyond <= 0.0) return 1.0;
      const double z = beyond / kSlack;
      return stats::det_exp(-0.5 * z * z);
    });
    std::vector<double> like;
    for (const bool simd : {true, false}) {
      const stats::ScopedSimd mode(simd);
      filter::ParticleFilter f = planted_filter(cloud);
      schemes::apply_map_constraint(place, kSlack, f, like);
      for (std::size_t i = 0; i < cloud.size(); ++i) {
        ASSERT_EQ(bits(f.weight(i)), bits(ref.weight(i)))
            << "venue " << v << " simd " << simd << " particle " << i
            << " at (" << cloud[i].x << ", " << cloud[i].y << ")";
      }
    }
    if (HasFailure()) return;  // one venue's report is enough
  }
  EXPECT_GT(coded_cells, 1000u) << "the unique-edge code never fired";
  EXPECT_GT(coded_probes, 6000u);
  EXPECT_GT(by_code[View::kGeneral], 0u);
  EXPECT_GT(by_code[View::kSafe], 0u);
  EXPECT_GT(by_code[View::kFirstEdge], 0u);
}

/// One recorded walk: where it starts and every frame it produced.
struct Walk {
  schemes::StartCondition start;
  std::vector<sim::SensorFrame> frames;
};

/// A walk along each of the eight campus paths, with the GPS off every
/// fourth epoch so scheme availability flaps.
const std::vector<Walk>& campus_walks() {
  static const std::vector<Walk> walks = [] {
    const core::Deployment& d = campus_deployment();
    std::vector<Walk> out;
    for (std::size_t w = 0; w < d.place->walkways().size(); ++w) {
      sim::Walker walker(d.place.get(), d.radio.get(), w,
                         sim::WalkConfig{.seed = 1000 + w});
      Walk walk{{walker.start_position(), walker.start_heading()}, {}};
      for (std::size_t e = 0; !walker.done(); ++e) {
        walk.frames.push_back(walker.step(e % 4 != 3));
      }
      out.push_back(std::move(walk));
    }
    return out;
  }();
  return walks;
}

bool same_matches(const std::vector<schemes::Match>& a,
                  const std::vector<schemes::Match>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const schemes::Match& x, const schemes::Match& y) {
                      return x.index == y.index &&
                             bits(x.distance) == bits(y.distance);
                    });
}

TEST(KernelOracle, ScanMemoAndCacheMatchKNearestOnRecordedCampusScans) {
  const core::Deployment& d = campus_deployment();
  schemes::ScanMemo memo;
  schemes::ScanScratch scratch;
  std::vector<schemes::Match> got;
  std::uint64_t tag = 0;
  std::size_t memo_queries = 0;
  // Every scan is copied into one buffer, as a server decodes each epoch
  // into reused storage: only the tag tells the memo that a scan at the
  // same address (and often of the same size) is a new one.
  std::vector<sim::ApReading> scan;
  scan.reserve(1024);
  for (const schemes::FingerprintDatabase* db :
       {d.wifi_db.get(), d.cell_db.get()}) {
    ASSERT_TRUE(db->likelihood_cache_ready());
    const std::size_t all = db->size() + 5;
    for (const Walk& walk : campus_walks()) {
      for (const sim::SensorFrame& frame : walk.frames) {
        const std::vector<sim::ApReading>& heard =
            db == d.wifi_db.get() ? frame.wifi : frame.cell;
        scan.assign(heard.begin(), heard.end());
        std::map<std::size_t, std::vector<schemes::Match>> ref;
        for (const std::size_t k : {std::size_t{0}, std::size_t{3},
                                    std::size_t{15}, std::size_t{20}, all}) {
          ref[k] = db->k_nearest(scan, k);
        }
        // The pipeline's query order (scheme, fusion, feature), its
        // reverse, then the degenerate bounds; one epoch (tag) per order.
        for (const std::vector<std::size_t>& ks :
             {std::vector<std::size_t>{20, 15, 3}, {3, 15, 20}, {0, all}}) {
          ++tag;
          for (const std::size_t k : ks) {
            db->k_nearest_memo(scan, k, tag, memo, got);
            ++memo_queries;
            ASSERT_TRUE(same_matches(ref[k], got))
                << "memo, t " << frame.t << " k " << k;
            db->k_nearest_into(scan, k, scratch, got);
            ASSERT_TRUE(same_matches(ref[k], got))
                << "into, t " << frame.t << " k " << k;
          }
        }
      }
    }
  }
  EXPECT_GT(memo_queries, 40'000u);
  EXPECT_GT(scratch.cache_hits, 0u);
}

/// Every field a consumer may read, bit for bit (consumers gate on
/// `available`, so an unavailable output is compared on that alone).
bool same_output(const schemes::SchemeOutput& a,
                 const schemes::SchemeOutput& b) {
  if (a.available != b.available) return false;
  if (!a.available) return true;
  const auto same_point = [](const schemes::WeightedPoint& p,
                             const schemes::WeightedPoint& q) {
    return bits(p.pos.x) == bits(q.pos.x) && bits(p.pos.y) == bits(q.pos.y) &&
           bits(p.weight) == bits(q.weight);
  };
  const auto same_observable = [](const auto& p, const auto& q) {
    return p.first == q.first && bits(p.second) == bits(q.second);
  };
  return bits(a.estimate.x) == bits(b.estimate.x) &&
         bits(a.estimate.y) == bits(b.estimate.y) &&
         std::equal(a.posterior.support.begin(), a.posterior.support.end(),
                    b.posterior.support.begin(), b.posterior.support.end(),
                    same_point) &&
         std::equal(a.observables.begin(), a.observables.end(),
                    b.observables.begin(), b.observables.end(),
                    same_observable);
}

TEST(KernelOracle, SchemeOutputIsTheSameWithAndWithoutEpochContext) {
  const core::Deployment& d = campus_deployment();
  for (const bool calibrate : {false, true}) {
    // Two identically seeded ensembles: one localizes with a shared epoch
    // context installed (memo + arena buffers, as update_fast runs it),
    // the other with none. Each keeps reusing its own output slots.
    std::vector<schemes::SchemePtr> with =
        core::make_standard_schemes(d, calibrate);
    std::vector<schemes::SchemePtr> without =
        core::make_standard_schemes(d, calibrate);
    std::vector<schemes::SchemeOutput> with_out(with.size());
    std::vector<schemes::SchemeOutput> without_out(without.size());
    schemes::EpochContext ctx;
    std::size_t compared = 0;
    for (const Walk& walk : campus_walks()) {
      for (std::size_t i = 0; i < with.size(); ++i) {
        with[i]->reset(walk.start);
        without[i]->reset(walk.start);
      }
      for (const sim::SensorFrame& frame : walk.frames) {
        ++ctx.tag;
        for (std::size_t i = 0; i < with.size(); ++i) {
          with[i]->set_epoch_context(&ctx);
          with[i]->update_into(frame, with_out[i]);
          with[i]->set_epoch_context(nullptr);
          without[i]->update_into(frame, without_out[i]);
          ASSERT_TRUE(same_output(without_out[i], with_out[i]))
              << with[i]->name() << (calibrate ? " calibrated" : "")
              << ", t " << frame.t;
          compared += with_out[i].available;
        }
      }
    }
    EXPECT_GT(compared, 10'000u);
  }
}

// ---------------------------------------------------------------- service

svc::UnilocFactory factory_for(const core::Deployment& d) {
  return [&d](std::uint64_t sid) {
    return std::make_unique<core::Uniloc>(core::make_uniloc(
        d, test_models(), {}, false, /*seed=*/7 + sid));
  };
}

svc::LoadGenConfig load_cfg_for(const fault::FaultPlan* plan,
                                std::uint64_t seed) {
  svc::LoadGenConfig lg;
  lg.walkers = 8;  // round-robin: one per campus path
  lg.max_epochs_per_walker = 24;
  lg.seed = seed;
  lg.resilience.retry.max_retries = 1;
  lg.resilience.probe_period = 2;
  lg.resilience.record_timeline = true;
  if (plan != nullptr) {
    // The chaos schedule is a pure function of (seed, session, send
    // index), so it hits the same frames at any worker count.
    lg.make_link = [plan](svc::LocalizationServer& s, std::uint64_t sid) {
      return std::make_unique<fault::FaultyLink>(
          std::make_unique<svc::DirectLink>(&s), plan, sid);
    };
  }
  return lg;
}

svc::LoadReport run_load_scenario(const core::Deployment& d,
                                  const fault::FaultPlan* plan, int workers,
                                  std::uint64_t seed) {
  svc::ServerConfig cfg;
  cfg.workers = workers;
  svc::LocalizationServer server(cfg, factory_for(d), nullptr);
  return run_load(server, d, load_cfg_for(plan, seed), nullptr);
}

void expect_identical_reports(const svc::LoadReport& ref,
                              const svc::LoadReport& fast,
                              const std::string& label) {
  ASSERT_EQ(ref.walkers.size(), fast.walkers.size()) << label;
  EXPECT_EQ(ref.total_epochs, fast.total_epochs) << label;
  for (std::size_t w = 0; w < ref.walkers.size(); ++w) {
    const svc::WalkerOutcome& r = ref.walkers[w];
    const svc::WalkerOutcome& f = fast.walkers[w];
    const std::string at = label + " walker " + std::to_string(w);
    EXPECT_EQ(r.session_id, f.session_id) << at;
    EXPECT_EQ(r.walkway, f.walkway) << at;
    EXPECT_EQ(r.epochs_accepted, f.epochs_accepted) << at;
    EXPECT_EQ(r.local_epochs, f.local_epochs) << at;
    EXPECT_EQ(r.rehellos, f.rehellos) << at;
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
      expect_same(re.estimate.x, fe.estimate.x, ep + " x");
      expect_same(re.estimate.y, fe.estimate.y, ep + " y");
      expect_same(re.error_m, fe.error_m, ep + " err");
    }
  }
}

TEST(DifferentialSvc, ChaosCampusServiceBitIdenticalAtWorkers0And4) {
  const core::Deployment& d = campus_deployment();
  fault::FaultRates rates;
  rates.drop = 0.10;
  rates.corrupt = 0.05;
  rates.base_delay_us = 20'000;
  fault::FaultPlan plan(5, rates);
  plan.add_blackout(6, 9);

  const svc::LoadReport ref =
      run_load_scenario(d, &plan, /*workers=*/0, 2024);
  const svc::LoadReport pooled =
      run_load_scenario(d, &plan, /*workers=*/4, 2024);
  expect_identical_reports(ref, pooled, "chaos workers=4");
}

TEST(DifferentialSvc, ChaosSeedSweepBitIdentical) {
  // Smaller venue, more seeds: the fault schedule, retry timing, and
  // fallback transitions all re-randomize per seed.
  const core::Deployment& d = office_deployment();
  fault::FaultRates rates;
  rates.drop = 0.15;
  rates.corrupt = 0.05;
  fault::FaultPlan plan(11, rates);
  for (std::uint64_t seed = 100; seed < 132; ++seed) {
    const svc::LoadReport ref =
        run_load_scenario(d, &plan, /*workers=*/0, seed);
    const svc::LoadReport pooled =
        run_load_scenario(d, &plan, /*workers=*/4, seed);
    expect_identical_reports(ref, pooled, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace uniloc
