// Load generator: N simulated walkers against a LocalizationServer.
//
// Each walker is a full phone: it walks one of the deployment's paths
// (round-robin, distinct seeds), runs the offload::PhoneAgent reduction
// locally, speaks the svc wire protocol (kHello / kEpoch* / kBye), honors
// the GPS duty-cycle decision the server echoes in every reply, and
// measures end-to-end request latency client-side. Submission is
// pipelined in rounds: every active walker submits `burst` epochs, then
// all replies are collected -- so with W workers up to
// min(walkers, W) sessions are genuinely in flight at once.
//
// The phone no longer assumes a perfect link. Every epoch travels through
// a svc::Link (DirectLink by default; inject fault::FaultyLink via
// make_link to run chaos), and the client runs a degradation state
// machine per session:
//
//     HEALTHY --(timeout x (1 + max_retries))--> DEGRADED
//        ^                                           |
//        |   probe every probe_period epochs;        |
//        +-- on success adopt the server fix;  <-----+
//            kUnknownSession => re-hello seeded at the
//            local estimate, then resend the epoch
//
// While DEGRADED the epoch is served by core::LocalFallback: PDR
// dead-reckoning from the last server fix using the same quantized
// StepPayload the uplink carries. Timeouts, backoff (exponential +
// deterministic jitter), and link delays are all virtual -- compared
// against LinkReply::delay_us, never slept -- so a chaos run is a pure
// function of (seed, schedule) and bit-identical at any worker count.
//
// Traffic accounting charges only deployment-real bytes (frame headers +
// offload payload encodings; the simulation sidecar is free) into the
// returned TrafficStats and, when a registry is supplied, into the
// standard `offload.{uplink,downlink}_bytes` counters -- svc framing
// overhead included, retransmissions counted on top (DESIGN.md sec. 10).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/deployment.h"
#include "offload/session.h"
#include "sim/virtual_clock.h"
#include "sim/walker.h"
#include "svc/link.h"
#include "svc/server.h"

namespace uniloc::svc {

/// Builds the transport for one phone. Default: perfect DirectLink.
/// Chaos runs return a fault::FaultyLink here (typically wrapping a
/// DirectLink built over `server`).
using LinkFactory = std::function<std::unique_ptr<Link>(
    LocalizationServer& server, std::uint64_t session_id)>;

/// Client-side degradation policy knobs (see the state machine above).
struct ResilienceConfig {
  RetryPolicy retry{};
  /// Serve epochs locally (PDR dead-reckoning) while the link is down.
  /// When false, failed epochs are counted as errors and skipped.
  bool local_fallback{true};
  /// While degraded, re-probe the server every this many epochs.
  std::size_t probe_period{4};
  /// Record a per-epoch EpochEvent timeline in each WalkerOutcome
  /// (chaos tests assert fallback entry/exit epoch-by-epoch).
  bool record_timeline{false};
};

/// One epoch of one phone's timeline (record_timeline mode).
struct EpochEvent {
  enum class Source : std::uint8_t {
    kServer,   ///< Estimate came from an accepted server reply.
    kLocal,    ///< Served by the local PDR fallback.
    kSkipped,  ///< No estimate (backpressure, or fallback disabled).
  };

  std::size_t epoch{0};
  Source source{Source::kServer};
  std::size_t attempts{0};  ///< Link sends consumed (0 for local epochs).
  bool degraded_after{false};
  bool entered_fallback{false};
  bool exited_fallback{false};
  bool rehello{false};  ///< Session re-opened (reconcile) this epoch.
  geo::Vec2 estimate;
  double error_m{0.0};  ///< Estimate vs ground truth.
};

struct LoadGenConfig {
  std::size_t walkers{8};
  /// 0 = walk every path to its end.
  std::size_t max_epochs_per_walker{0};
  /// Epochs each walker submits per round before replies are collected
  /// (>1 exercises the per-session inbox).
  std::size_t burst{1};
  std::uint64_t seed{2024};
  std::uint64_t first_session_id{1};
  /// Template for every walker's WalkConfig (gait, device, sensor
  /// noise); each walker's seed is still derived from `seed`. The
  /// property-test generator's seam into the simulated walkers.
  sim::WalkConfig walk{};
  /// Transport per phone; null = DirectLink (perfect wire).
  LinkFactory make_link;
  ResilienceConfig resilience{};
  /// Shared virtual clock: advanced by epoch_period_s once per round and
  /// readable by the server (ServerConfig::now_us = clock->now_fn()) so
  /// TTL eviction during a blackout is deterministic. Null = no clock.
  sim::VirtualClock* clock{nullptr};
  double epoch_period_s{0.5};
  /// Called after each round's replies have been collected (every session
  /// is idle at that point), with the 0-based round index. The hook for
  /// crash/checkpoint orchestration (fault/crash.h): the server may be
  /// snapshotted, crashed and restored here between rounds.
  std::function<void(std::size_t round)> on_round;
  /// Client-side span tracing (obs/span.h). Null = off (a branch per
  /// instrumentation point). Each server-bound epoch opens a
  /// `client.epoch` root span plus one `client.attempt` span per link
  /// send; the ambient TraceContext is set around every send so the
  /// link's and server's spans chain under the attempt.
  obs::SpanTracer* tracer{nullptr};
  /// Client-side flight events (obs/flight_recorder.h): submits,
  /// accepts, retries, timeouts, fallback transitions, re-hellos. Share
  /// the recorder with ServerConfig::flight to interleave both sides of
  /// each session's story. Null = off.
  obs::FlightRecorder* flight{nullptr};
};

struct WalkerOutcome {
  std::uint64_t session_id{0};
  std::size_t walkway{0};
  std::size_t epochs_accepted{0};
  std::size_t backpressure{0};  ///< kBackpressure rejections observed.
  std::size_t errors{0};        ///< Any other kError replies.
  double mean_error_m{0.0};     ///< Fused estimate vs ground truth.
  geo::Vec2 final_estimate;     ///< Last accepted fused coordinate.

  // --- degradation stats (all zero on a perfect link) ----------------
  std::size_t retries{0};         ///< Extra link attempts beyond the first.
  std::size_t timeouts{0};        ///< Attempts lost or later than timeout.
  std::size_t local_epochs{0};    ///< Epochs served by the local fallback.
  std::size_t fallback_entries{0};
  std::size_t fallback_exits{0};
  std::size_t rehellos{0};        ///< Sessions re-opened on reconnect.
  std::vector<EpochEvent> timeline;  ///< Filled when record_timeline.
};

struct LoadReport {
  std::vector<WalkerOutcome> walkers;
  offload::TrafficStats traffic;     ///< Wire-real bytes, accepted epochs.
  std::vector<double> latencies_us;  ///< Client-side, accepted epochs.
  double wall_s{0.0};                ///< Epoch phase only.
  std::size_t total_epochs{0};
  std::size_t backpressure_total{0};
  std::size_t error_total{0};
  std::size_t retries_total{0};
  std::size_t timeouts_total{0};
  std::size_t local_epochs_total{0};

  double throughput_eps() const {
    return wall_s > 0.0 ? static_cast<double>(total_epochs) / wall_s : 0.0;
  }
  /// Server-accepted epochs per second -- under faults the headline
  /// metric: retransmits burn capacity without adding goodput.
  double goodput_eps() const { return throughput_eps(); }
};

/// Drive `server` with cfg.walkers simulated phones over `d`'s walkways.
/// When `registry` is non-null the wire volume lands in the standard
/// offload byte counters and the degradation transitions in the
/// `fault.{retries,timeouts}` / `svc.degraded.*` instruments.
/// Single-threaded on the caller's side.
LoadReport run_load(LocalizationServer& server, const core::Deployment& d,
                    const LoadGenConfig& cfg,
                    obs::MetricsRegistry* registry = nullptr);

}  // namespace uniloc::svc
