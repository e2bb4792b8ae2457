// Epoch pipeline bench: the zero-allocation Uniloc::update_fast() on
// recorded campus frames.
//
// Reports epochs/sec, per-epoch latency percentiles (p50/p99), the
// likelihood-cache hit rate, and the steady-state scratch footprint. A
// second pass runs with live span tracing attached and reports
// tracing_overhead_pct (contract: < 5% of epoch throughput).
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "core/epoch_scratch.h"
#include "core/uniloc.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "sim/walker.h"

using namespace uniloc;

namespace {

struct ReplayFixture {
  std::vector<sim::SensorFrame> frames;
  geo::Vec2 start_pos{};
  double start_heading{0.0};
};

ReplayFixture record_walk(const core::Deployment& d, std::size_t walkway,
                          std::uint64_t seed) {
  ReplayFixture r;
  sim::WalkConfig wc;
  wc.seed = seed;
  sim::Walker walker(d.place.get(), d.radio.get(), walkway, wc);
  r.start_pos = walker.start_position();
  r.start_heading = walker.start_heading();
  while (!walker.done()) r.frames.push_back(walker.step(true));
  return r;
}

struct PipelineStats {
  std::vector<double> epoch_us;  ///< One latency sample per epoch.
  double epochs_per_sec{0.0};
  double cache_hit_rate{0.0};
  std::size_t scratch_bytes{0};
};

/// Replay `fx` through the pipeline `passes` times (resetting between
/// passes), timing every epoch individually. With a tracer, every epoch
/// runs under an attached SpanTracer (one scheme span per registered
/// scheme plus the fuse span, serialized to the tracer's sink).
PipelineStats run_pipeline(const core::Deployment& d,
                           const ReplayFixture& fx, int passes,
                           obs::SpanTracer* tracer = nullptr) {
  core::Uniloc uniloc = core::make_uniloc(d, bench::standard_models());
  core::EpochScratch scratch;
  uniloc.attach_tracer(tracer);

  // One untimed pass grows every scratch buffer to steady capacity, so
  // the timed passes measure the regime the service actually runs in.
  uniloc.reset({fx.start_pos, fx.start_heading});
  for (const sim::SensorFrame& frame : fx.frames) {
    uniloc.update_fast(frame, scratch);
  }

  PipelineStats stats;
  stats.epoch_us.reserve(fx.frames.size() * static_cast<std::size_t>(passes));
  double total_us = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    uniloc.reset({fx.start_pos, fx.start_heading});
    for (const sim::SensorFrame& frame : fx.frames) {
      const obs::Stopwatch sw;
      uniloc.update_fast(frame, scratch);
      const double us = sw.elapsed_us();
      stats.epoch_us.push_back(us);
      total_us += us;
    }
  }
  stats.epochs_per_sec =
      1e6 * static_cast<double>(stats.epoch_us.size()) / total_us;
  const std::uint64_t hits =
      uniloc.scheme_cache_hits() + scratch.cache_hits();
  const std::uint64_t misses =
      uniloc.scheme_cache_misses() + scratch.cache_misses();
  if (hits + misses > 0) {
    stats.cache_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  stats.scratch_bytes = scratch.bytes();
  return stats;
}

}  // namespace

int main() {
  obs::BenchReport report = bench::make_report("epoch_pipeline");

  // The campus is the paper's primary venue (the eight daily paths) and
  // the regime the likelihood cache is built for: hundreds of
  // fingerprints matched against every scan.
  const core::Deployment d = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});
  const ReplayFixture fx = record_walk(d, /*walkway=*/0, /*seed=*/99);
  std::printf("replaying %zu recorded epochs per pass (wifi db %zu, cell db %zu)\n",
              fx.frames.size(), d.wifi_db->size(), d.cell_db->size());

  constexpr int kPasses = 20;
  const PipelineStats fast = run_pipeline(d, fx, kPasses);

  // Again, with live span tracing serializing every
  // scheme/fuse span as JSONL into a memory buffer -- the worst-case
  // enabled-tracing tax the service can pay per epoch. The acceptance
  // contract bounds it below 5% of epoch throughput.
  std::ostringstream span_buf;
  obs::JsonlSpanSink span_sink(span_buf);
  obs::SpanTracer tracer(&span_sink);
  const PipelineStats traced = run_pipeline(d, fx, kPasses, &tracer);

  const double tracing_overhead_pct =
      fast.epochs_per_sec > 0.0
          ? 100.0 * (1.0 - traced.epochs_per_sec / fast.epochs_per_sec)
          : 0.0;

  io::Table t({"pipeline", "epochs/s", "p50 (us)", "p99 (us)",
               "cache hit", "scratch (KiB)"});
  const auto row = [&t](const char* name, const PipelineStats& s) {
    t.add_row({name, io::Table::num(s.epochs_per_sec),
               io::Table::num(stats::percentile(s.epoch_us, 50.0)),
               io::Table::num(stats::percentile(s.epoch_us, 99.0)),
               io::Table::num(s.cache_hit_rate),
               io::Table::num(static_cast<double>(s.scratch_bytes) / 1024.0)});
  };
  row("update_fast()", fast);
  row("update_fast() + span tracing", traced);
  std::printf("%s", t.to_string().c_str());
  std::printf("tracing overhead: %.2f%% (%zu spans emitted)\n",
              tracing_overhead_pct, span_sink.spans_written());

  report.add_series("fast_epoch_us", fast.epoch_us);
  report.add_series("traced_epoch_us", traced.epoch_us);
  report.add_scalar("fast_epochs_per_sec", fast.epochs_per_sec);
  report.add_scalar("fast_p50_us", stats::percentile(fast.epoch_us, 50.0));
  report.add_scalar("fast_p99_us", stats::percentile(fast.epoch_us, 99.0));
  report.add_scalar("fast_cache_hit_rate", fast.cache_hit_rate);
  report.add_scalar("fast_scratch_bytes",
                    static_cast<double>(fast.scratch_bytes));
  report.add_scalar("traced_epochs_per_sec", traced.epochs_per_sec);
  report.add_scalar("tracing_overhead_pct", tracing_overhead_pct);
  report.add_scalar("traced_spans",
                    static_cast<double>(span_sink.spans_written()));
  bench::report_json(report);
  return 0;
}
