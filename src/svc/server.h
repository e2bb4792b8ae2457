// LocalizationServer: the multi-tenant localization service.
//
// submit(bytes) -> future<bytes> is the entire surface: one encoded
// svc::Frame in, one encoded reply frame out. kHello opens a session
// (the factory builds its core::Uniloc), kEpoch runs one localization
// epoch on the session's strand, kBye closes it. Malformed input of any
// kind -- bad magic, wrong version, truncated frame, corrupt payload --
// produces a kError reply (and a metrics increment), never a crash.
//
// Threading model:
//   * submit() may be called from any one client thread at a time (the
//     simulated deployments have a single ingress); frame decoding and
//     session routing happen on that thread, epoch execution happens on
//     the pool.
//   * Per-session execution is serialized by the session strand; distinct
//     sessions run concurrently across workers.
//   * workers == 0 is the deterministic inline mode: every submit()
//     completes synchronously on the caller's thread, and a run with a
//     fixed seed is bit-reproducible (unit tests, replays).
//   * Checkpoint waves are split into a trigger and a fill. The trigger
//     runs on the submitting thread (maybe_checkpoint or an explicit
//     checkpoint_wave_now()) and only stamps the wave's seq. With
//     workers > 0 and a committer, the committer thread fills the wave
//     -- quiesces and serializes each session it carries -- so a wave
//     never holds submit() for its serialization; otherwise the trigger
//     fills it on the caller, as snapshot_wave() always does. Triggers
//     come from one thread at a time.
//
// Instrumentation (all via src/obs, guarded by one stats mutex so worker
// threads can record concurrently):
//   gauges    svc.live_sessions, svc.queue_depth
//   counters  svc.accepted, svc.rejected, svc.evicted, svc.malformed
//   histograms svc.request_us (accept -> reply, queue wait included),
//              svc.parse_us, svc.locate_us (per stage).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/uniloc.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "svc/committer.h"
#include "svc/session_manager.h"
#include "svc/statusz.h"
#include "svc/thread_pool.h"
#include "svc/wire.h"

namespace uniloc::obs {
class Counter;
class FlightRecorder;
class Gauge;
class Histogram;
class MetricsRegistry;
class SloMonitor;
}  // namespace uniloc::obs

namespace uniloc::svc {

struct WaveHeader;

/// Builds the per-session ensemble. Called on the submitting thread when
/// a kHello arrives; use `session_id` to derive per-session seeds.
using UnilocFactory =
    std::function<std::unique_ptr<core::Uniloc>(std::uint64_t session_id)>;

struct ServerConfig {
  /// 0 = inline deterministic mode (no threads).
  int workers{0};
  std::size_t stripes{8};
  /// Pending epochs per session beyond the running one; the bound that
  /// turns overload into explicit kBackpressure replies.
  std::size_t inbox_capacity{8};
  std::size_t pool_queue_capacity{4096};
  double idle_ttl_s{300.0};
  /// Sessions are TTL-scanned every this many accepted frames (plus on
  /// every explicit evict_idle() call).
  std::size_t evict_scan_period{256};
  /// Injectable clock (microseconds, monotonic) for deterministic TTL
  /// tests; defaults to steady_clock. sim::VirtualClock::now_fn() plugs
  /// in here.
  std::function<std::uint64_t()> now_us;
  /// Observation hook: called with every successfully served epoch's full
  /// decision, after the reply is sent. With workers > 0 it runs on the
  /// worker threads and must be thread-safe; intended for invariant
  /// checks and tracing in the deterministic workers == 0 mode. The
  /// decision lives in the serving thread's epoch arena: copy what must
  /// outlive the call.
  std::function<void(std::uint64_t session_id,
                     const core::EpochDecision& decision)>
      on_epoch;
  /// Periodic checkpointing: when > 0 and `checkpoint_dir` is set,
  /// submit() triggers a wave through checkpoint_wave_now() whenever at
  /// least this many microseconds (by `now_us`) have passed since the
  /// last one. Waves quiesce each session before serializing it and
  /// leave its Uniloc state untouched, so enabling them keeps the served
  /// epoch stream bit-identical.
  std::uint64_t checkpoint_period_us{0};
  /// Durable delta-chain checkpointing (svc/delta.h): the directory the
  /// wave files (keyframe + dirty-session deltas) go to. Pair with
  /// restore_chain() at startup.
  std::string checkpoint_dir;
  /// Every Nth wave is a full keyframe (bounds both recovery length and
  /// how long a departed session's bytes linger in the chain). Waves in
  /// between serialize only sessions whose strand ran since the last
  /// wave.
  std::size_t keyframe_interval{16};
  /// Encode chain waves with the quantized particle codec (payload
  /// version 2, ~4x smaller; filter/particle_filter.h documents the
  /// error budget). Never applies to snapshot(), which stays lossless
  /// -- crash/restore bit-identity depends on it.
  bool snapshot_quantize{false};
  /// Async group commit (svc/committer.h). Non-null offloads wave file
  /// I/O (write, fsync, rename, dir fsync) to the committer's thread,
  /// and with workers > 0 the wave's fill (its serialization) too. On
  /// committer backpressure the wave is published synchronously rather
  /// than dropped; a threaded server first waits for its queued waves,
  /// then fills on the caller. Null fills and publishes on the caller.
  /// Not owned; must outlive the server, which waits in shutdown(),
  /// crash() and its destructor until every wave it queued has settled.
  GroupCommitter* committer{nullptr};
  /// Causal span tracing (obs/span.h). Null = disabled; the detached
  /// cost on the epoch path is a branch per instrumentation point. One
  /// span tree per served epoch: svc.epoch > {svc.queue_wait,
  /// svc.decode, svc.locate > core spans, svc.encode}.
  obs::SpanTracer* tracer{nullptr};
  /// Per-session flight recorder; every served epoch records its scheme
  /// decision, every malformed epoch an error event. Null = off.
  obs::FlightRecorder* flight{nullptr};
  /// SLO monitor observing every epoch outcome (request latency, error
  /// flag). Null = off. Also rendered by kStatus / statusz dumps.
  obs::SloMonitor* slo{nullptr};
};

class LocalizationServer {
 public:
  LocalizationServer(ServerConfig cfg, UnilocFactory factory,
                     obs::MetricsRegistry* registry = nullptr);
  ~LocalizationServer();

  LocalizationServer(const LocalizationServer&) = delete;
  LocalizationServer& operator=(const LocalizationServer&) = delete;

  /// Process one encoded frame. The future always yields an encoded reply
  /// frame (kReply or kError) -- errors travel in-band, like on a socket.
  std::future<std::vector<std::uint8_t>> submit(
      std::vector<std::uint8_t> request);

  /// TTL-scan now. Returns sessions evicted.
  std::size_t evict_idle();

  /// Serialize every live session into one lossless keyframe wave
  /// (svc/delta.h), written by the same record loop as the checkpoint
  /// waves. Each session is quiesced (waited idle) while its record is
  /// written, so its payload is a consistent post-epoch state. A pure
  /// read: no session state, dirty mark or wave sequence changes, so a
  /// run with snapshots interleaved is bit-identical to one without. The
  /// wave carries the fixed seq 1, so equal servers snapshot to equal
  /// bytes.
  std::vector<std::uint8_t> snapshot();

  /// Outcome of a restore.
  struct ChainRestoreResult {
    bool ok{false};               ///< A valid keyframe restored.
    std::size_t deltas_applied{0};
    std::size_t waves_rejected{0};  ///< Damaged/unlinked waves skipped.
    std::uint64_t seq{0};           ///< Last applied wave.
  };

  /// Replace the entire session population with the one `waves`
  /// collapse to (collapse_chain: the newest valid keyframe plus the
  /// longest linked run of deltas after it; a snapshot() is a one-wave
  /// chain). Sessions are rebuilt through the factory (same per-session
  /// seeds as the hello path) and their serialized state restored on
  /// top. Without a valid keyframe the population is left as it was; a
  /// malformed session record drops ALL sessions; hostile input never
  /// crashes. Success re-anchors the chain: the sequence continues past
  /// the restored wave and the next periodic wave is a keyframe.
  ChainRestoreResult restore(
      const std::vector<std::vector<std::uint8_t>>& waves);

  /// Serialize one checkpoint wave (svc/delta.h) on the caller and
  /// advance the wave sequence. A keyframe wave carries every live
  /// session; a delta wave only those whose strand ran since they were
  /// last serialized (their dirty mark), plus the full membership list
  /// so departures collapse away. Sessions are quiesced one at a time
  /// exactly like snapshot(); each serialized session is marked clean
  /// inside its exclusive section. Payload codec follows
  /// cfg.snapshot_quantize.
  std::vector<std::uint8_t> snapshot_wave(bool keyframe);

  /// restore() from the wave files in cfg.checkpoint_dir (torn or
  /// corrupt waves are rejected as units and reported). Whatever the
  /// outcome, the sequence then continues past the highest seq among the
  /// directory's wave file names, rejected and stale waves included, so
  /// the re-anchoring keyframe outranks every file there and its prune
  /// removes them.
  ChainRestoreResult restore_chain();

  /// Cumulative delta-chain persistence counters (soak bench, statusz).
  struct CheckpointStats {
    std::uint64_t waves{0};
    std::uint64_t keyframes{0};
    std::uint64_t keyframe_records{0};
    std::uint64_t delta_records{0};
    std::uint64_t keyframe_bytes{0};
    std::uint64_t delta_bytes{0};
    std::uint64_t publish_failures{0};
    /// Waves published synchronously because the committer queue was
    /// full (explicit backpressure, never a silent drop).
    std::uint64_t sync_fallbacks{0};
    /// Cumulative wall time spent filling waves (quiescing and
    /// serializing their sessions, CRC included), in microseconds: on
    /// the committer thread for a threaded server with a committer,
    /// else on the thread that triggered the wave.
    std::uint64_t keyframe_fill_us{0};
    std::uint64_t delta_fill_us{0};
  };
  CheckpointStats checkpoint_stats() const;

  /// Trigger one wave into cfg.checkpoint_dir right now, regardless of
  /// the checkpoint period: decide keyframe or delta and stamp its seq,
  /// then fill and publish it -- on the committer thread when the
  /// server has workers and a committer (committer->flush() waits for
  /// it), else fill on the caller and publish through the committer or
  /// synchronously. Clean-shutdown flush: the periodic path only fires
  /// on the next submit, so a server that goes quiet would otherwise
  /// leave its last epochs off the chain.
  void checkpoint_wave_now();

  /// Simulate a process crash: all in-RAM session state is lost (the
  /// object survives so callers holding references keep working, as a
  /// restarted process would reuse the same address). Waves already
  /// triggered are filled from the pre-crash population and settled
  /// first. Pair with restore() to model crash recovery from the last
  /// checkpoint.
  void crash();

  /// Stop intake, let every queued wave fill and settle, drain in-flight
  /// epochs, join workers. Idempotent.
  void shutdown();

  std::size_t live_sessions() const { return sessions_.size(); }
  const ServerConfig& config() const { return cfg_; }

  /// Point-in-time health snapshot (sessions sorted by id). The same
  /// data the kStatus frame serves; exposed for the CLI's --statusz.
  ServerStatus status();

 private:
  /// mu guards only the histograms (multi-field observe is not atomic);
  /// counters and gauges are internally atomic and recorded lock-free.
  struct Instruments {
    std::mutex mu;
    obs::Gauge* live_sessions{nullptr};
    obs::Gauge* queue_depth{nullptr};
    obs::Counter* accepted{nullptr};
    obs::Counter* rejected{nullptr};
    obs::Counter* evicted{nullptr};
    obs::Counter* malformed{nullptr};
    obs::Counter* status_requests{nullptr};
    obs::Histogram* request_us{nullptr};
    obs::Histogram* parse_us{nullptr};
    obs::Histogram* locate_us{nullptr};
    // Epoch pipeline health: likelihood-cache outcomes aggregated across
    // sessions, and the footprint of the arena that served the most
    // recent epoch.
    obs::Counter* perf_cache_hits{nullptr};
    obs::Counter* perf_cache_misses{nullptr};
    obs::Gauge* perf_scratch_bytes{nullptr};
  };

  using Promise = std::shared_ptr<std::promise<std::vector<std::uint8_t>>>;

  std::uint64_t now_us() const;
  void count_malformed();
  void count_accepted();
  void note_live_sessions();
  std::future<std::vector<std::uint8_t>> reply_now(const Frame& reply);

  void handle_hello(const Frame& frame, const Promise& promise);
  void handle_epoch(Frame frame, const Promise& promise);
  void handle_bye(const Frame& frame, const Promise& promise);
  void handle_status(const Frame& frame, const Promise& promise);
  /// Runs on a worker (or inline): parse payload, run the epoch, reply.
  /// `accepted_at` was started when submit() accepted the frame, so
  /// svc.request_us includes the queue wait. `root`/`queue_wait` are the
  /// epoch's open spans (zero handles when tracing is detached): the
  /// queue-wait span closes on entry, children hang off `root`.
  void run_epoch(Session& session, const std::vector<std::uint8_t>& payload,
                 std::uint64_t session_id, const Promise& promise,
                 obs::Stopwatch accepted_at, obs::SpanHandle root,
                 obs::SpanHandle queue_wait);
  /// Trigger a wave when the checkpoint period elapsed.
  void maybe_checkpoint();
  /// The trigger's half of a wave, called under chain_mu_: stamp seq and
  /// parent_seq and advance the keyframe cadence.
  WaveHeader stamp_wave_locked(bool keyframe);
  /// The fill, the one record loop behind every wave and snapshot():
  /// take membership, then quiesce + serialize each session the wave
  /// carries (all for a keyframe, else the dirty ones) in the header's
  /// payload codec; CRC. A checkpoint fill also marks each serialized
  /// session clean inside the same exclusive section and is counted in
  /// ckpt_stats_; snapshot() fills with `checkpoint` false and so stays a
  /// pure read. Checkpoint fills run one at a time in seq order, so a
  /// later wave never clears a dirty mark before an earlier one has
  /// serialized that session.
  std::vector<std::uint8_t> fill_wave(WaveHeader header,
                                      bool checkpoint = true);
  /// Book a publish outcome: prune behind a durable keyframe, re-anchor
  /// the chain after a failure.
  void settle_wave(const WaveHeader& header, bool ok);
  /// Block until every wave this server queued on the committer has
  /// been filled and settled (the committer calls back into `this`).
  void await_waves();

  ServerConfig cfg_;
  UnilocFactory factory_;
  obs::MetricsRegistry* registry_{nullptr};  ///< For statusz dumps.
  SessionManager sessions_;
  ThreadPool pool_;
  Instruments ins_;
  std::mutex lifecycle_mu_;  ///< Guards stopping_ + accepted_count_.
  bool stopping_{false};
  std::size_t accepted_since_scan_{0};
  std::uint64_t last_checkpoint_us_{0};
  /// Delta-chain state (guarded by chain_mu_; serialization itself runs
  /// outside the lock -- waves are triggered by one thread at a time and
  /// filled one at a time, see fill_wave).
  mutable std::mutex chain_mu_;
  std::uint64_t wave_seq_{0};
  std::size_t waves_since_keyframe_{0};
  /// Start keyframed; also re-set after a chain restore or a publish
  /// failure so the chain re-anchors instead of chaining onto a wave
  /// that may not be durable.
  bool force_keyframe_{true};
  CheckpointStats ckpt_stats_{};
  /// Waves handed to the committer whose done callback has not run yet.
  std::size_t waves_queued_{0};
  std::condition_variable waves_settled_;
};

}  // namespace uniloc::svc
