// SLO monitor: sliding-window latency + error budgets with burn rates.
//
// Two budgets over the last `window` requests:
//   * latency: at most `latency_budget` of requests slower than
//     `latency_slo_us`;
//   * errors: at most `error_budget` of requests failing.
// A burn rate is the observed bad fraction divided by its budget -- 1.0
// means the budget is being consumed exactly as fast as it is granted;
// above 1.0 the SLO is breached. Burn rates, the windowed p99, and the
// breach state export as `slo.*` gauges, which the statusz dump and a
// Prometheus scrape read, and the breach edge fires a callback the
// server wires to a flight-recorder dump.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace uniloc::obs {

class MetricsRegistry;

struct SloConfig {
  double latency_slo_us{250'000.0};  ///< "Slow" threshold per request.
  double latency_budget{0.05};       ///< Allowed slow fraction.
  double error_budget{0.02};         ///< Allowed error fraction.
  std::size_t window{512};           ///< Sliding window, in requests.
  std::size_t min_samples{32};       ///< No verdicts before this many.
};

/// Thread-safe. observe() is a mutex + ring write with incremental slow
/// and error counts; p99 is computed on demand from the window.
class SloMonitor {
 public:
  /// `registry` (optional) receives slo.latency_burn_rate,
  /// slo.error_burn_rate, slo.breached gauges and an slo.breaches
  /// counter, refreshed on every observe().
  explicit SloMonitor(SloConfig cfg = {},
                      MetricsRegistry* registry = nullptr);

  /// One finished request. Fires on_breach on each healthy-to-breached
  /// edge (outside the internal lock).
  void observe(double latency_us, bool error);

  double latency_burn_rate() const;
  double error_burn_rate() const;
  double p99_latency_us() const;  ///< Over the current window.
  bool breached() const;
  std::uint64_t breaches() const;  ///< Healthy->breached edges seen.
  std::uint64_t samples() const;   ///< Lifetime observations.

  const SloConfig& config() const { return cfg_; }

  /// Invoked on each healthy->breached transition. Set before traffic
  /// starts; not guarded against concurrent mutation.
  std::function<void()> on_breach;

 private:
  struct Sample {
    double latency_us{0.0};
    bool slow{false};
    bool error{false};
  };

  double latency_burn_locked() const;
  double error_burn_locked() const;
  bool breached_locked() const;

  mutable std::mutex mu_;
  SloConfig cfg_;
  std::vector<Sample> ring_;
  std::size_t next_{0};
  std::size_t filled_{0};
  std::size_t slow_in_window_{0};
  std::size_t errors_in_window_{0};
  std::uint64_t total_{0};
  std::uint64_t breach_edges_{0};
  bool was_breached_{false};

  class Gauge* g_latency_burn_{nullptr};
  class Gauge* g_error_burn_{nullptr};
  class Gauge* g_breached_{nullptr};
  class Gauge* g_p99_{nullptr};
  class Counter* c_breaches_{nullptr};
};

}  // namespace uniloc::obs
