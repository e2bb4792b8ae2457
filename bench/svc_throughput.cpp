// Bench: multi-session service throughput vs worker-pool size.
//
// 32 simulated phones (round-robin over the eight campus paths, distinct
// walk seeds) speak the svc wire protocol against one LocalizationServer
// at 1, 2, 4, and 8 workers. Each epoch blocks its worker for the
// simulated network push (Table V measures 52 + 63 ms of WLAN
// transmissions per fix; we use a compressed stand-in so the bench runs
// in seconds) -- so throughput scales with workers until the CPU
// saturates, exactly like the real synchronous server.
//
// Two scenarios:
//   clean  the perfect wire, as before. Headline: epochs/s must rise
//          monotonically from 1 to 4 workers.
//   chaos  every phone behind a fault::FaultyLink with 1% request drops
//          and a 50 ms simulated link delay. Headlines: no deadlock and
//          no session loss at any worker count, goodput degrades
//          gracefully (retransmits burn capacity, sessions all finish),
//          and a same-seed rerun is byte-identical per session.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "fault/link.h"
#include "fault/plan.h"
#include "shard/router.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "stats/descriptive.h"

using namespace uniloc;

namespace {

constexpr std::size_t kWalkers = 32;
constexpr std::size_t kEpochsPerWalker = 20;
constexpr std::chrono::microseconds kSimulatedNetwork{8000};

svc::LoadReport run_config(const core::Deployment& campus, int workers,
                           const fault::FaultPlan* plan) {
  svc::ServerConfig cfg;
  cfg.workers = workers;
  cfg.simulated_network = kSimulatedNetwork;
  svc::LocalizationServer server(
      cfg,
      [&campus](std::uint64_t sid) {
        return std::make_unique<core::Uniloc>(core::make_uniloc(
            campus, bench::standard_models(), {}, false, /*seed=*/7 + sid));
      },
      &obs::default_registry());

  svc::LoadGenConfig lg;
  lg.walkers = kWalkers;
  lg.max_epochs_per_walker = kEpochsPerWalker;
  lg.burst = 2;  // two epochs in flight per session: exercises the inbox
  lg.seed = 2024;
  if (plan != nullptr) {
    lg.make_link = [plan](svc::Endpoint& s, std::uint64_t sid) {
      return std::make_unique<fault::FaultyLink>(
          std::make_unique<svc::DirectLink>(&s), plan, sid);
    };
  }
  svc::LoadReport report =
      svc::run_load(server, campus, lg, &obs::default_registry());
  server.shutdown();
  return report;
}

/// One run against a ShardRouter over `shards` servers, each with its own
/// `workers`-thread pool (the fleet scaling axis: more shards = more
/// concurrent simulated-network pushes in flight).
svc::LoadReport run_fleet(const core::Deployment& campus, std::size_t shards,
                          int workers) {
  shard::RouterConfig cfg;
  cfg.shards = shards;
  cfg.server.workers = workers;
  cfg.server.simulated_network = kSimulatedNetwork;
  shard::ShardRouter router(
      cfg,
      [&campus](std::uint64_t sid) {
        return std::make_unique<core::Uniloc>(core::make_uniloc(
            campus, bench::standard_models(), {}, false, /*seed=*/7 + sid));
      },
      &obs::default_registry());

  svc::LoadGenConfig lg;
  lg.walkers = kWalkers;
  lg.max_epochs_per_walker = kEpochsPerWalker;
  lg.burst = 2;
  lg.seed = 2024;
  svc::LoadReport report =
      svc::run_load(router, campus, lg, &obs::default_registry());
  router.shutdown();
  return report;
}

/// Per-session byte-identity of two same-seed runs (wall-clock latencies
/// are the only fields allowed to differ).
bool outcomes_identical(const svc::LoadReport& a, const svc::LoadReport& b) {
  if (a.walkers.size() != b.walkers.size()) return false;
  if (a.traffic.uplink_bytes != b.traffic.uplink_bytes) return false;
  if (a.traffic.retransmitted_bytes != b.traffic.retransmitted_bytes) {
    return false;
  }
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    const svc::WalkerOutcome& x = a.walkers[i];
    const svc::WalkerOutcome& y = b.walkers[i];
    if (x.epochs_accepted != y.epochs_accepted || x.retries != y.retries ||
        x.timeouts != y.timeouts || x.local_epochs != y.local_epochs ||
        x.mean_error_m != y.mean_error_m ||
        x.final_estimate.x != y.final_estimate.x ||
        x.final_estimate.y != y.final_estimate.y) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  obs::BenchReport bench_report = bench::make_report("svc_throughput");
  (void)bench::standard_models();  // train before the clock matters
  core::Deployment campus = core::make_deployment(sim::campus());

  std::printf(
      "svc throughput -- %zu walkers x %zu epochs over %zu campus paths, "
      "%.0f ms simulated network per epoch\n\n",
      kWalkers, kEpochsPerWalker, campus.place->walkways().size(),
      static_cast<double>(kSimulatedNetwork.count()) / 1000.0);

  io::Table table({"workers", "epochs", "epochs/s", "p50 (ms)", "p95 (ms)",
                   "p99 (ms)", "backpressure"});
  double eps_w1 = 0.0, eps_w4 = 0.0;
  bool monotonic_1_to_4 = true;
  double prev_eps = 0.0;
  double clean_eps[9] = {0.0};
  for (const int workers : {1, 2, 4, 8}) {
    const svc::LoadReport r = run_config(campus, workers, nullptr);
    const double eps = r.throughput_eps();
    clean_eps[workers] = eps;
    const double p50 = stats::percentile(r.latencies_us, 50.0) / 1000.0;
    const double p95 = stats::percentile(r.latencies_us, 95.0) / 1000.0;
    const double p99 = stats::percentile(r.latencies_us, 99.0) / 1000.0;
    table.add_row({std::to_string(workers), std::to_string(r.total_epochs),
                   io::Table::num(eps), io::Table::num(p50),
                   io::Table::num(p95), io::Table::num(p99),
                   std::to_string(r.backpressure_total)});

    const std::string prefix = "workers" + std::to_string(workers) + ".";
    bench_report.add_scalar(prefix + "throughput_eps", eps);
    bench_report.add_scalar(prefix + "latency_p50_ms", p50);
    bench_report.add_scalar(prefix + "latency_p95_ms", p95);
    bench_report.add_scalar(prefix + "latency_p99_ms", p99);
    bench_report.add_scalar(prefix + "backpressure",
                            static_cast<double>(r.backpressure_total));
    bench_report.add_series("latency_us_w" + std::to_string(workers),
                            r.latencies_us);

    if (workers == 1) eps_w1 = eps;
    if (workers == 4) eps_w4 = eps;
    if (workers <= 4 && eps <= prev_eps) monotonic_1_to_4 = false;
    prev_eps = eps;
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("scaling 1 -> 4 workers: %.2fx, monotonic: %s\n",
              eps_w1 > 0.0 ? eps_w4 / eps_w1 : 0.0,
              monotonic_1_to_4 ? "yes" : "NO");
  bench_report.add_scalar("scaling_1_to_4", eps_w1 > 0.0 ? eps_w4 / eps_w1
                                                         : 0.0);
  bench_report.add_scalar("monotonic_1_to_4", monotonic_1_to_4 ? 1.0 : 0.0);

  // ------------------------------------------------------ chaos scenario
  fault::FaultRates rates;
  rates.drop = 0.01;
  rates.base_delay_us = 50'000;  // under the 200 ms timeout: pure latency
  const fault::FaultPlan plan(2024, rates);

  std::printf("\nchaos scenario -- 1%% request drops, 50 ms link delay\n\n");
  io::Table chaos_table({"workers", "goodput/s", "vs clean", "retransmits",
                         "timeouts", "sessions ok"});
  bool no_session_loss = true;
  bool graceful = true;
  for (const int workers : {1, 2, 4, 8}) {
    const svc::LoadReport r = run_config(campus, workers, &plan);
    const double eps = r.goodput_eps();
    // A session is lost if it stopped getting fixes: every phone must
    // finish its walk with every epoch answered by the server or, at
    // worst, by its local fallback.
    std::size_t ok = 0;
    for (const svc::WalkerOutcome& w : r.walkers) {
      if (w.epochs_accepted + w.local_epochs + w.backpressure ==
          kEpochsPerWalker) {
        ++ok;
      }
    }
    if (ok != r.walkers.size()) no_session_loss = false;
    // Graceful degradation: ~1% retransmits must not collapse throughput.
    const double ratio =
        clean_eps[workers] > 0.0 ? eps / clean_eps[workers] : 0.0;
    if (ratio < 0.3) graceful = false;
    chaos_table.add_row(
        {std::to_string(workers), io::Table::num(eps),
         io::Table::num(ratio), std::to_string(r.traffic.retransmits),
         std::to_string(r.timeouts_total),
         std::to_string(ok) + "/" + std::to_string(r.walkers.size())});

    const std::string prefix = "chaos.workers" + std::to_string(workers) + ".";
    bench_report.add_scalar(prefix + "goodput_eps", eps);
    bench_report.add_scalar(prefix + "vs_clean", ratio);
    bench_report.add_scalar(prefix + "retransmits",
                            static_cast<double>(r.traffic.retransmits));
    bench_report.add_scalar(prefix + "sessions_ok",
                            static_cast<double>(ok));
  }
  std::printf("%s\n", chaos_table.to_string().c_str());

  // Same seed, same plan -> per-session outcomes must match bit for bit
  // (run at 8 workers: determinism must survive maximal interleaving).
  const svc::LoadReport d1 = run_config(campus, 8, &plan);
  const svc::LoadReport d2 = run_config(campus, 8, &plan);
  const bool deterministic = outcomes_identical(d1, d2);
  std::printf("same-seed chaos reruns byte-identical per session: %s\n",
              deterministic ? "yes" : "NO");
  std::printf("no session loss: %s, graceful degradation: %s\n",
              no_session_loss ? "yes" : "NO", graceful ? "yes" : "NO");
  bench_report.add_scalar("chaos.deterministic", deterministic ? 1.0 : 0.0);
  bench_report.add_scalar("chaos.no_session_loss",
                          no_session_loss ? 1.0 : 0.0);
  bench_report.add_scalar("chaos.graceful", graceful ? 1.0 : 0.0);

  bench::report_json(bench_report);

  // --------------------------------------------------- fleet scaling
  // Same 32 phones, but the endpoint is a ShardRouter over {1, 2, 4}
  // shards with 2 workers each. Each shard owns its pool, so the fleet's
  // concurrent network pushes -- the bottleneck above -- scale with the
  // shard count. Headlines: epochs/s rises monotonically with shards and
  // the single-shard fleet pays no measurable routing tax. Written as its
  // own BENCH_shard_scaling.json (plus a BENCH_history.jsonl line).
  obs::BenchReport shard_report = bench::make_report("shard_scaling");
  std::printf("\nfleet scaling -- %zu walkers, 2 workers per shard\n\n",
              kWalkers);
  io::Table fleet_table(
      {"shards", "epochs", "epochs/s", "vs 1 shard", "p95 (ms)"});
  double fleet_eps1 = 0.0, fleet_eps4 = 0.0;
  bool fleet_monotonic = true;
  double fleet_prev = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const svc::LoadReport r = run_fleet(campus, shards, /*workers=*/2);
    const double eps = r.throughput_eps();
    const double p95 = stats::percentile(r.latencies_us, 95.0) / 1000.0;
    if (shards == 1) fleet_eps1 = eps;
    if (shards == 4) fleet_eps4 = eps;
    if (eps <= fleet_prev) fleet_monotonic = false;
    fleet_prev = eps;
    fleet_table.add_row(
        {std::to_string(shards), std::to_string(r.total_epochs),
         io::Table::num(eps),
         io::Table::num(fleet_eps1 > 0.0 ? eps / fleet_eps1 : 0.0),
         io::Table::num(p95)});
    const std::string prefix = "shards" + std::to_string(shards) + ".";
    shard_report.add_scalar(prefix + "throughput_eps", eps);
    shard_report.add_scalar(prefix + "latency_p95_ms", p95);
    shard_report.add_series("latency_us_s" + std::to_string(shards),
                            r.latencies_us);
  }
  std::printf("%s\n", fleet_table.to_string().c_str());
  const double fleet_scaling =
      fleet_eps1 > 0.0 ? fleet_eps4 / fleet_eps1 : 0.0;
  // The routing tax: one shard behind the router vs the bare server at
  // the same 2-worker pool (from the clean table above).
  const double router_tax =
      fleet_eps1 > 0.0 ? clean_eps[2] / fleet_eps1 : 0.0;
  std::printf("fleet scaling 1 -> 4 shards: %.2fx, monotonic: %s, "
              "router tax vs bare server: %.2fx\n",
              fleet_scaling, fleet_monotonic ? "yes" : "NO", router_tax);
  shard_report.add_scalar("scaling_1_to_4", fleet_scaling);
  shard_report.add_scalar("monotonic_1_to_4", fleet_monotonic ? 1.0 : 0.0);
  shard_report.add_scalar("router_tax_vs_bare", router_tax);
  bench::report_json(shard_report);
  const bool fleet_pass = fleet_monotonic && fleet_scaling > 1.5;

  const bool pass = monotonic_1_to_4 && deterministic && no_session_loss &&
                    graceful && fleet_pass;
  return pass ? 0 : 1;
}
