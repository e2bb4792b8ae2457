// Served-epoch benchmark for svc::LocalizationServer.
//
//   uniloc_perfbench --workload <campus_saturate|city_churn> --seed <n>
//                    --seconds <s> --trace <0|1> --work-dir <dir>
//                    [--spans <csv>]
//
// The server is driven only through submit(), with simulated_network left
// at 0, so every figure is CPU-bound. Inputs are recorded campus phones
// (inputs.h); every served reply is compared byte for byte with its
// inline reference. The last line of standard output is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exit codes: 0 ok, 1 bad arguments, 2 failed check (reply mismatch,
// lossy restore, wrapper or trace mismatch), 3 invalid run (generator
// lateness over its bound). README.md defines every metric.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "inputs.h"
#include "obs/metrics.h"
#include "probe.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "svc/committer.h"
#include "svc/epoch_codec.h"

namespace perfbench {
namespace {

using namespace uniloc;
using Bytes = std::vector<std::uint8_t>;
using Server = svc::LocalizationServer;

// ---- workload shape -------------------------------------------------------
// campus_saturate: one closed-loop phone per campus path; nproc - 1 workers
// plus the generator thread keep all four cores busy.
constexpr std::size_t kPhones = 8;
constexpr std::size_t kWalksPerPath = 4;  // a phone's laps cycle through these
constexpr int kCampusWorkers = 3;
constexpr double kCampusWarmS = 1.0;
constexpr std::size_t kCampusRssEpochs = 16;  // before any lap ends
// Eight sessions restore in about 2 ms: each round of restores repeats
// for this long (see kRounds).
constexpr double kCampusRestoreRoundS = 1.0;

// city_churn: an open loop at the walker's step cadence over a resident
// population far beyond cache. Two workers plus the generator and the
// group-commit thread make the four busy threads.
constexpr double kStepS = 0.55;
constexpr std::size_t kCityResident = 2000;
constexpr std::size_t kCityWalking = 300;  // 15% walk at any moment
constexpr std::size_t kCityBurst = 8;      // epochs per walk
constexpr double kCityChurnPerS = 20.0;    // 1% of residents per second
constexpr std::size_t kCityWarmEpochs = 2;
constexpr std::size_t kCityTracks = 64;
constexpr int kCityWorkers = 2;
constexpr std::uint64_t kWavePeriodUs = 1'000'000;
// Longer than any window: every periodic wave in the window is a delta;
// the keyframe is cut once, before the window, as the chain's anchor.
constexpr std::size_t kKeyframeInterval = 1000;
constexpr int kCityRestoresPerRound = 2;

// The walks themselves are a fixed pool, the same for every --seed, so
// accuracy figures compare across runs; the seed draws how the pool is
// used (lap order, session-to-walk assignment, the open-loop schedule).
constexpr std::uint64_t kPoolSeed = 2018;

// Set-up and restore are timed in rounds and reported as medians. On a
// shared VM the core speed drifts by tens of percent over seconds, so the
// rounds are spread out: set-ups before and after the pass, restores
// interleaved with the later set-ups.
constexpr int kRounds = 3;
// A run is invalid when the generator's own lateness (time it took to
// issue a request once it was due and the ingress thread was free)
// exceeds this at p99.
constexpr double kMaxLatenessUs = 10000.0;
// Latency reported for a failed epoch (it misses every limit).
constexpr double kFailedLatencyMs = 1e9;

struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::filesystem::path work_dir;
  std::filesystem::path spans;  ///< Where --trace 1 writes its span sample.
};

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : stats::percentile(std::move(v), 50.0);
}

/// Percentile that tolerates failed epochs (+inf samples).
double pct(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double x = stats::percentile(v, q);
  return std::isfinite(x) ? x : kFailedLatencyMs;
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

const char* error_name(svc::ErrorCode c) {
  switch (c) {
    case svc::ErrorCode::kMalformed: return "malformed";
    case svc::ErrorCode::kUnknownSession: return "unknown_session";
    case svc::ErrorCode::kBackpressure: return "backpressure";
    case svc::ErrorCode::kShuttingDown: return "shutting_down";
    case svc::ErrorCode::kSessionExists: return "session_exists";
  }
  return "other";
}

// ---- the client side ------------------------------------------------------

struct Outstanding {
  std::future<Bytes> reply;
  std::optional<Bytes> early;  ///< Collected when submit() returned ready.
  std::size_t epoch{0};
  std::int64_t due_ns{0};
  std::int64_t send_ns{0};
  std::int64_t sent_ns{0};
  bool in_window{false};
};

struct Session {
  const Track* track{nullptr};
  std::size_t next{0};
  std::deque<Outstanding> outstanding;
  bool diverged{false};  ///< An epoch failed; the state no longer matches.
  std::int64_t last_done_ns{-1};
};

struct WaveSample {
  double ms{0.0};
  bool keyframe{false};
  std::uint64_t records{0};
  std::uint64_t bytes{0};
};

/// One traced epoch's span boundaries (steady-clock ns) and scheme times.
struct SpanRow {
  std::uint64_t session_id{0};
  std::size_t epoch{0};
  std::int64_t due_ns{0}, send_ns{0}, sent_ns{0};
  std::int64_t first_entry_ns{0}, last_exit_ns{0}, done_ns{0};
  std::array<std::int64_t, kSchemes> scheme_ns{};
};

// Every kSpanSample-th traced epoch keeps its spans for the spans file.
constexpr std::uint64_t kSpanSample = 16;

struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t correct{0};
  std::uint64_t failed{0};
  std::vector<double> latency_ms;
  double fix_error_sum{0.0};
  std::uint64_t gps_on{0};
  std::map<svc::ErrorCode, std::uint64_t> refused;
  std::vector<double> lateness_us;
  // Traced runs only.
  std::vector<double> submit_epoch_us, submit_hello_us, submit_bye_us;
  std::vector<double> ingress_wait_us, queue_wait_us, predict_fuse_us,
      service_us;
  std::array<std::vector<double>, kSchemes> scheme_us;
  std::array<std::uint64_t, kSchemes> available{};
  std::array<double, kSchemes> scheme_ns_sum{};
  double predict_fuse_ns_sum{0.0};
  double service_ns_sum{0.0};
  double layer_ns_sum{0.0};
  double latency_ns_sum{0.0};
  std::vector<WaveSample> waves;
  std::vector<SpanRow> spans;
};

/// The generator's view of the server: sends frames, matches every reply
/// against the reference, and tallies the measured window. Runs on one
/// thread; only the on_epoch hook (via Completions) crosses threads.
class Client {
 public:
  Client(Server& server, Completions& done, bool traced, bool watch_waves)
      : server_(server), done_(done), traced_(traced),
        watch_waves_(watch_waves) {}

  Tally tally;

  void open(std::uint64_t sid, const Track& track, std::size_t first_epoch) {
    Session& s = sessions_[sid];
    if (!s.outstanding.empty()) throw CheckFailed("hello with epochs in flight");
    s = Session{};
    s.track = &track;
    s.next = first_epoch;
    const Bytes reply = control(
        make_frame(svc::FrameType::kHello, sid, svc::encode_hello(track.hello)),
        tally.submit_hello_us);
    if (const auto code = reply_error(reply)) {
      ++tally.refused[*code];
      s.diverged = true;
    }
  }

  void close(std::uint64_t sid) {
    const Bytes reply =
        control(make_frame(svc::FrameType::kBye, sid), tally.submit_bye_us);
    if (const auto code = reply_error(reply)) ++tally.refused[*code];
    Session& s = sessions_.at(sid);
    if (s.outstanding.empty()) sessions_.erase(sid);
  }

  Session& session(std::uint64_t sid) { return sessions_.at(sid); }

  /// Send the session's next epoch. `due_ns` = 0 means "now" (closed
  /// loop). False when the epoch failed at once (no reply will follow).
  bool send(std::uint64_t sid, std::int64_t due_ns, bool in_window) {
    Session& s = sessions_.at(sid);
    if (s.next >= s.track->size()) throw CheckFailed("walk shorter than plan");
    Outstanding o;
    o.epoch = s.next++;
    o.in_window = in_window;
    Bytes frame = svc::encode_frame(make_frame(
        svc::FrameType::kEpoch, sid, s.track->requests[o.epoch]));
    o.reply = timed_submit(std::move(frame), o.send_ns, o.sent_ns);
    // Generator lateness: the time from when the request could have gone
    // out (its due time, or the previous reply in a closed loop) to the
    // send, not counting time the ingress thread spent inside submit().
    std::int64_t ready_ns = -1;
    if (due_ns == 0) {
      o.due_ns = o.send_ns;
      ready_ns = s.last_done_ns;
    } else {
      o.due_ns = due_ns;
      ready_ns = std::max(due_ns, last_return_ns_);
    }
    if (in_window && ready_ns >= 0) {
      tally.lateness_us.push_back(static_cast<double>(o.send_ns - ready_ns) *
                                  1e-3);
    }
    last_return_ns_ = o.sent_ns;
    if (in_window) {
      ++tally.attempted;
      if (traced_) {
        tally.submit_epoch_us.push_back(
            static_cast<double>(o.sent_ns - o.send_ns) * 1e-3);
      }
    }
    if (o.reply.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      Bytes reply = o.reply.get();
      if (const auto code = reply_error(reply)) {
        fail(o, s, *code);
        return false;
      }
      o.early = std::move(reply);
    }
    s.outstanding.push_back(std::move(o));
    ++in_flight_;
    return true;
  }

  /// Settle the replies the on_epoch hook announced; returns the sessions
  /// that got one. With `wait`, blocks up to 50 ms for the first.
  const std::vector<std::uint64_t>& poll(bool wait) {
    done_.take(batch_, wait, std::chrono::milliseconds(50));
    ready_.clear();
    for (const Completion& c : batch_) settle(c);
    return ready_;
  }

  /// Wait for every epoch still in flight.
  void drain() {
    const std::int64_t t0 = now_ns();
    while (in_flight_ > 0) {
      poll(true);
      if (seconds_since(t0) > 60.0) throw CheckFailed("replies never arrived");
    }
  }

 private:
  std::future<Bytes> timed_submit(Bytes frame, std::int64_t& send_ns,
                                  std::int64_t& sent_ns) {
    Server::CheckpointStats before;
    if (watch_waves_) before = server_.checkpoint_stats();
    send_ns = now_ns();
    std::future<Bytes> reply = server_.submit(std::move(frame));
    sent_ns = now_ns();
    if (watch_waves_) {
      const Server::CheckpointStats after = server_.checkpoint_stats();
      if (after.waves != before.waves) {
        WaveSample w;
        w.ms = static_cast<double>(sent_ns - send_ns) * 1e-6;
        w.keyframe = after.keyframes != before.keyframes;
        w.records = (after.keyframe_records - before.keyframe_records) +
                    (after.delta_records - before.delta_records);
        w.bytes = (after.keyframe_bytes - before.keyframe_bytes) +
                  (after.delta_bytes - before.delta_bytes);
        tally.waves.push_back(w);
      }
    }
    return reply;
  }

  Bytes control(const svc::Frame& frame, std::vector<double>& span_us) {
    std::int64_t send_ns = 0, sent_ns = 0;
    std::future<Bytes> reply =
        timed_submit(svc::encode_frame(frame), send_ns, sent_ns);
    last_return_ns_ = sent_ns;
    if (traced_) span_us.push_back(static_cast<double>(sent_ns - send_ns) * 1e-3);
    return reply.get();
  }

  void fail(const Outstanding& o, Session& s, svc::ErrorCode code) {
    ++tally.refused[code];
    s.diverged = true;
    if (o.in_window) {
      ++tally.failed;
      tally.latency_ms.push_back(INFINITY);
    }
  }

  void settle(const Completion& c) {
    const auto it = sessions_.find(c.session_id);
    if (it == sessions_.end() || it->second.outstanding.empty()) {
      throw CheckFailed("reply for an epoch that was never sent");
    }
    Session& s = it->second;
    while (!s.outstanding.empty()) {
      Outstanding o = std::move(s.outstanding.front());
      s.outstanding.pop_front();
      --in_flight_;
      Bytes reply = o.early.has_value() ? std::move(*o.early) : o.reply.get();
      if (const auto code = reply_error(reply)) {
        fail(o, s, *code);  // refused on the worker; a later epoch completed
        continue;
      }
      served(o, s, c, reply);
      break;
    }
    s.last_done_ns = c.done_ns;
    ready_.push_back(c.session_id);
  }

  void served(const Outstanding& o, const Session& s, const Completion& c,
              const Bytes& reply) {
    if (s.diverged) {
      if (o.in_window) {
        ++tally.failed;
        tally.latency_ms.push_back(INFINITY);
      }
      return;
    }
    const Track& t = *s.track;
    if (!is_reference_reply(reply, c.session_id, t.replies[o.epoch])) {
      throw CheckFailed("session " + std::to_string(c.session_id) +
                        " epoch " + std::to_string(o.epoch) +
                        ": served reply differs from the inline reference");
    }
    if (!o.in_window) return;
    ++tally.correct;
    tally.latency_ms.push_back(static_cast<double>(c.done_ns - o.due_ns) *
                               1e-6);
    tally.fix_error_sum += t.fix_error_m[o.epoch];
    if (t.gps_on[o.epoch]) ++tally.gps_on;
    if (!traced_) return;

    const EpochProbe& p = c.probe;
    const auto us = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-3; };
    const std::int64_t ingress = o.send_ns - o.due_ns;
    const std::int64_t submit = o.sent_ns - o.send_ns;
    const std::int64_t queue = p.first_entry_ns - o.sent_ns;
    const std::int64_t fuse = c.done_ns - p.last_exit_ns;
    const std::int64_t service = c.done_ns - p.first_entry_ns;
    std::int64_t schemes = 0;
    for (std::size_t i = 0; i < kSchemes; ++i) {
      schemes += p.scheme_ns[i];
      tally.scheme_us[i].push_back(us(p.scheme_ns[i]));
      tally.scheme_ns_sum[i] += static_cast<double>(p.scheme_ns[i]);
      if (c.available[i]) ++tally.available[i];
    }
    tally.ingress_wait_us.push_back(us(ingress));
    tally.queue_wait_us.push_back(us(queue));
    tally.predict_fuse_us.push_back(us(fuse));
    tally.service_us.push_back(us(service));
    tally.predict_fuse_ns_sum += static_cast<double>(fuse);
    tally.service_ns_sum += static_cast<double>(service);
    tally.layer_ns_sum +=
        static_cast<double>(ingress + submit + queue + schemes + fuse);
    tally.latency_ns_sum += static_cast<double>(c.done_ns - o.due_ns);
    if (tally.correct % kSpanSample == 0) {
      tally.spans.push_back({c.session_id, o.epoch, o.due_ns, o.send_ns,
                             o.sent_ns, p.first_entry_ns, p.last_exit_ns,
                             c.done_ns, p.scheme_ns});
    }
  }

  Server& server_;
  Completions& done_;
  const bool traced_;
  const bool watch_waves_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::vector<Completion> batch_;
  std::vector<std::uint64_t> ready_;
  std::size_t in_flight_{0};
  std::int64_t last_return_ns_{0};
};

/// The on_epoch hook: stamps completion and, when traced, hands over the
/// probe record the wrappers left on this worker thread.
std::function<void(std::uint64_t, const core::EpochDecision&)> completion_hook(
    Completions& done, bool traced) {
  return [&done, traced](std::uint64_t sid, const core::EpochDecision& d) {
    Completion c;
    c.session_id = sid;
    c.done_ns = now_ns();
    if (traced) {
      c.probe = thread_probe();
      for (std::size_t i = 0; i < kSchemes && i < d.outputs.size(); ++i) {
        c.available[i] = d.outputs[i].available;
      }
    }
    done.push(c);
  };
}

// ---- one measured pass ----------------------------------------------------

struct Pass {
  Tally tally;
  int workers{0};
  double window_s{0.0};
  double cpu_s{0.0};
  double start_s{0.0};  ///< Server start until the initial hellos are acked.
  std::size_t sessions{0};
  double rss_before_kib{0.0};
  double rss_hello_kib{0.0};
  double rss_warm_kib{0.0};
  Server::CheckpointStats ckpt;
  svc::GroupCommitter::Stats committer;
  double keyframe_ms{0.0};  ///< The one explicitly cut keyframe.
  // What restore_and_check needs once the pass has returned.
  bool traced{false};
  SeedOf seed_of;
  std::size_t live{0};
  std::vector<double> restore_s;
  std::size_t restored_sessions{0};
  std::size_t restore_waves_rejected{0};
  std::vector<double> make_us;
  // Likelihood-cache outcomes over the window (traced runs only).
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
};

/// Reads the server's likelihood-cache counters; the registry is attached
/// in traced runs only.
class CacheCounters {
 public:
  explicit CacheCounters(obs::MetricsRegistry* registry) {
    if (registry != nullptr) {
      hits_ = &registry->counter("perf.cache_hits");
      misses_ = &registry->counter("perf.cache_misses");
    }
  }
  void start() {
    if (hits_ != nullptr) {
      hits0_ = hits_->value();
      misses0_ = misses_->value();
    }
  }
  void stop(Pass& p) const {
    if (hits_ != nullptr) {
      p.cache_hits = hits_->value() - hits0_;
      p.cache_misses = misses_->value() - misses0_;
    }
  }

 private:
  obs::Counter* hits_{nullptr};
  obs::Counter* misses_{nullptr};
  std::uint64_t hits0_{0};
  std::uint64_t misses0_{0};
};

/// VmRSS after handing the heap's free pages back to the system, so growth
/// from here counts new memory only, not pages earlier phases freed.
double settled_rss_kib() {
  malloc_trim(0);
  return rss_kib();
}

svc::UnilocFactory factory_for(const Venue& venue, SeedOf seed_of, bool traced,
                               std::vector<double>* make_us) {
  return traced ? probed_factory(venue, std::move(seed_of), make_us)
                : plain_factory(venue, std::move(seed_of));
}

/// One round of cold restore_chain()s of what the pass wrote, on fresh
/// servers: at least `count`, and until `budget_s` has passed. A rejected
/// wave or a smaller population fails the run.
void restore_and_check(Pass& p, const Venue& venue,
                       const std::filesystem::path& dir, bool campus) {
  const int count = campus ? 3 : kCityRestoresPerRound;
  const double budget_s = campus ? kCampusRestoreRoundS : 0.0;
  const std::size_t live = p.live;
  const std::int64_t start = now_ns();
  for (int i = 0; i < count || seconds_since(start) < budget_s; ++i) {
    svc::ServerConfig cfg;
    cfg.checkpoint_dir = dir.string();
    cfg.snapshot_quantize = true;
    Server restored(cfg, factory_for(venue, p.seed_of, p.traced, nullptr));
    const std::int64_t t0 = now_ns();
    const Server::ChainRestoreResult r = restored.restore_chain();
    p.restore_s.push_back(seconds_since(t0));
    p.restored_sessions = restored.live_sessions();
    p.restore_waves_rejected = r.waves_rejected;
    if (!r.ok || r.waves_rejected != 0 || restored.live_sessions() < live) {
      throw CheckFailed("lossy restore: ok=" + std::to_string(r.ok) +
                        " rejected=" + std::to_string(r.waves_rejected) +
                        " restored=" + std::to_string(restored.live_sessions()) +
                        " live=" + std::to_string(live));
    }
  }
}

/// Track p * kWalksPerPath + w is walk w of campus path p.
std::vector<TrackSpec> campus_specs() {
  std::vector<TrackSpec> specs;
  for (std::size_t i = 0; i < kPhones * kWalksPerPath; ++i) {
    specs.push_back({i / kWalksPerPath, stats::hash_combine(kPoolSeed, 100 + i),
                     stats::hash_combine(kPoolSeed, 200 + i), 0});
  }
  return specs;
}

/// Which walk each campus phone (session p + 1) does on each lap.
struct CampusLaps {
  CampusLaps(const std::vector<Track>& tracks, std::uint64_t seed)
      : tracks_(tracks), current_(kPhones + 1, 0) {
    stats::Rng rng(stats::hash_combine(seed, 3));
    for (std::size_t p = 0; p < kPhones; ++p) {
      std::array<std::size_t, kWalksPerPath> order{};
      for (std::size_t w = 0; w < kWalksPerPath; ++w) {
        order[w] = p * kWalksPerPath + w;
      }
      std::shuffle(order.begin(), order.end(), rng.engine());
      order_.push_back(order);
      current_[p + 1] = order[0];
    }
  }
  /// The walk session `sid` is on (what its ensemble was built for).
  const Track& track(std::uint64_t sid) const { return tracks_[current_[sid]]; }
  /// Move session `sid` to the walk of lap `lap`.
  const Track& start_lap(std::uint64_t sid, std::size_t lap) {
    current_[sid] = order_[sid - 1][lap % kWalksPerPath];
    return track(sid);
  }

 private:
  const std::vector<Track>& tracks_;
  std::vector<std::array<std::size_t, kWalksPerPath>> order_;
  std::vector<std::size_t> current_;
};

Pass run_campus(const Venue& venue, const std::vector<Track>& tracks,
                const Options& opt, bool traced,
                const std::filesystem::path& dir) {
  Pass p;
  p.workers = kCampusWorkers;
  p.sessions = kPhones;
  CampusLaps laps(tracks, opt.seed);
  const SeedOf seed_of = [&laps](std::uint64_t sid) {
    return laps.track(sid).spec.uniloc_seed;
  };
  Completions done;
  svc::ServerConfig cfg;
  cfg.workers = kCampusWorkers;
  cfg.checkpoint_dir = dir.string();  // written once, after the window
  cfg.snapshot_quantize = true;
  cfg.on_epoch = completion_hook(done, traced);

  obs::MetricsRegistry registry;
  p.rss_before_kib = settled_rss_kib();
  const std::int64_t t_start_server = now_ns();
  Server server(cfg, factory_for(venue, seed_of, traced, &p.make_us),
                traced ? &registry : nullptr);
  CacheCounters cache(traced ? &registry : nullptr);
  Client client(server, done, traced, /*watch_waves=*/false);
  for (std::uint64_t sid = 1; sid <= kPhones; ++sid) {
    client.open(sid, laps.track(sid), 0);
  }
  p.start_s = seconds_since(t_start_server);
  p.rss_hello_kib = rss_kib();

  // Closed loop: a phone sends its next epoch when its reply arrives. At
  // the end of a walk it says kBye and kHello again under the same id and
  // walks its next lap, so every reply stays checkable.
  std::int64_t window_start = now_ns() + static_cast<std::int64_t>(kCampusWarmS * 1e9);
  const std::int64_t window_end =
      window_start + static_cast<std::int64_t>(opt.seconds * 1e9);
  bool measuring = false;
  double cpu0 = 0.0;
  std::vector<std::size_t> lap(kPhones + 1, 0);
  std::size_t warm_phones = 0;
  const auto next = [&](std::uint64_t sid) {
    for (;;) {
      Session& s = client.session(sid);
      if (s.next == s.track->size()) {
        client.close(sid);
        client.open(sid, laps.start_lap(sid, ++lap[sid]), 0);
      }
      if (!client.send(sid, 0, measuring)) continue;
      // Memory is read once every phone has walked a little, before any
      // lap ends and frees its ensemble.
      if (lap[sid] == 0 && client.session(sid).next == kCampusRssEpochs &&
          ++warm_phones == kPhones) {
        p.rss_warm_kib = rss_kib();
      }
      return;
    }
  };
  for (std::uint64_t sid = 1; sid <= kPhones; ++sid) next(sid);
  for (;;) {
    const std::vector<std::uint64_t>& ready = client.poll(true);
    const std::int64_t now = now_ns();
    if (!measuring && now >= window_start) {
      measuring = true;
      window_start = now;
      cpu0 = process_cpu_s();
      cache.start();
    }
    if (now >= window_end) break;
    for (const std::uint64_t sid : ready) next(sid);
  }
  p.window_s = static_cast<double>(now_ns() - window_start) * 1e-9;
  client.drain();
  p.cpu_s = process_cpu_s() - cpu0;
  cache.stop(p);

  const std::int64_t t_wave = now_ns();
  server.checkpoint_wave_now();  // synchronous: no committer
  p.keyframe_ms = seconds_since(t_wave) * 1e3;
  p.ckpt = server.checkpoint_stats();
  p.live = server.live_sessions();
  p.tally = std::move(client.tally);
  p.traced = traced;
  // The sessions' current walks, for the factory of later restores.
  std::vector<std::uint64_t> seeds(kPhones + 1, 0);
  for (std::uint64_t sid = 1; sid <= kPhones; ++sid) seeds[sid] = seed_of(sid);
  p.seed_of = [seeds](std::uint64_t sid) { return seeds.at(sid); };
  return p;
}

// city_churn: the whole open-loop schedule is fixed up front from the seed.
struct Event {
  enum Kind : std::uint8_t { kEpoch, kHello, kBye };
  std::int64_t due_ns{0};
  Kind kind{kEpoch};
  std::uint64_t sid{0};
};

struct CityPlan {
  std::vector<Event> events;
  std::vector<TrackSpec> specs;  ///< max_epochs = what the plan walks.
  std::uint64_t seed{0};

  std::size_t track_of(std::uint64_t sid) const {
    return static_cast<std::size_t>(stats::hash_combine(seed, sid) %
                                    kCityTracks);
  }
};

CityPlan plan_city(std::uint64_t seed, double seconds) {
  CityPlan plan;
  plan.seed = seed;
  const auto steps = static_cast<std::int64_t>(std::floor(seconds / kStepS));
  for (std::size_t t = 0; t < kCityTracks; ++t) {
    plan.specs.push_back({t % 8, stats::hash_combine(kPoolSeed, 1000 + t),
                          stats::hash_combine(kPoolSeed, 2000 + t), 1});
  }
  std::unordered_map<std::uint64_t, std::size_t> walked;
  const auto need = [&](std::uint64_t sid) {
    const std::size_t t = plan.track_of(sid);
    plan.specs[t].max_epochs = std::max(plan.specs[t].max_epochs, walked[sid]);
  };
  for (std::uint64_t sid = 1; sid <= kCityResident; ++sid) {
    walked[sid] = kCityWarmEpochs;
    need(sid);
  }

  // Rotation position r walks kCityBurst steps starting at step
  // floor((r + m N) B / A) - (B - 1), m = 0, 1, ...: about A sessions walk
  // at every step, each at its own phase within the step. A walk that
  // starts inside the window is a fresh arrival with probability q: the
  // resident leaves (kBye) and a new phone (kHello) walks instead.
  stats::Rng rng(stats::hash_combine(seed, 7));
  std::vector<std::uint64_t> slot_sid(kCityResident);
  for (std::size_t i = 0; i < kCityResident; ++i) slot_sid[i] = i + 1;
  std::shuffle(slot_sid.begin(), slot_sid.end(), rng.engine());
  const double starts_per_s = static_cast<double>(kCityWalking) /
                              (static_cast<double>(kCityBurst) * kStepS);
  const double q = kCityChurnPerS / starts_per_s;
  std::uint64_t next_sid = kCityResident + 1;
  std::vector<std::pair<Event, std::size_t>> events;  // (event, order)
  const auto step_ns = [](double step) {
    return static_cast<std::int64_t>(step * kStepS * 1e9);
  };
  for (std::size_t r = 0; r < kCityResident; ++r) {
    const double phase = rng.uniform();
    std::uint64_t sid = slot_sid[r];
    for (std::size_t m = 0;; ++m) {
      const auto start =
          static_cast<std::int64_t>((r + m * kCityResident) * kCityBurst /
                                    kCityWalking) -
          static_cast<std::int64_t>(kCityBurst - 1);
      if (start >= steps) break;
      if (start >= 0 && rng.uniform() < q) {
        const std::int64_t due = step_ns(static_cast<double>(start) + phase - 0.5);
        events.push_back({{std::max<std::int64_t>(due, 0), Event::kBye, sid},
                          events.size()});
        sid = next_sid++;
        walked[sid] = 0;
        events.push_back({{std::max<std::int64_t>(due, 0), Event::kHello, sid},
                          events.size()});
      }
      for (std::int64_t s = std::max<std::int64_t>(start, 0);
           s < std::min<std::int64_t>(start + kCityBurst, steps); ++s) {
        events.push_back(
            {{step_ns(static_cast<double>(s) + phase), Event::kEpoch, sid},
             events.size()});
        ++walked[sid];
        need(sid);
      }
    }
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.first.due_ns != b.first.due_ns ? a.first.due_ns < b.first.due_ns
                                            : a.second < b.second;
  });
  for (const auto& e : events) plan.events.push_back(e.first);
  return plan;
}

Pass run_city(const Venue& venue, const std::vector<Track>& tracks,
              const CityPlan& plan, bool traced,
              const std::filesystem::path& dir) {
  Pass p;
  p.workers = kCityWorkers;
  p.sessions = kCityResident;
  const auto track = [&](std::uint64_t sid) -> const Track& {
    return tracks[plan.track_of(sid)];
  };
  // Outlives the pass (restores use it): refers only to run()'s inputs.
  const SeedOf seed_of = [&tracks, &plan](std::uint64_t sid) {
    return tracks[plan.track_of(sid)].spec.uniloc_seed;
  };
  // The server's clock is the schedule's: waves fall at the same points of
  // the schedule on every run, however late the generator runs.
  std::atomic<std::uint64_t> clock_us{0};
  svc::GroupCommitter committer;
  Completions done;
  svc::ServerConfig cfg;
  cfg.workers = kCityWorkers;
  cfg.idle_ttl_s = 1e9;
  cfg.now_us = [&clock_us] { return clock_us.load(std::memory_order_relaxed); };
  cfg.checkpoint_period_us = kWavePeriodUs;
  cfg.checkpoint_dir = dir.string();
  cfg.keyframe_interval = kKeyframeInterval;
  cfg.snapshot_quantize = true;
  cfg.committer = &committer;
  cfg.on_epoch = completion_hook(done, traced);

  obs::MetricsRegistry registry;
  p.rss_before_kib = settled_rss_kib();
  const std::int64_t t_start_server = now_ns();
  Server server(cfg, factory_for(venue, seed_of, traced, &p.make_us),
                traced ? &registry : nullptr);
  CacheCounters cache(traced ? &registry : nullptr);
  Client client(server, done, traced, /*watch_waves=*/traced);
  for (std::uint64_t sid = 1; sid <= kCityResident; ++sid) {
    client.open(sid, track(sid), 0);
  }
  p.start_s = seconds_since(t_start_server);
  p.rss_hello_kib = rss_kib();

  // Every resident walks its first epochs before the window.
  for (std::size_t w = 0; w < kCityWarmEpochs; ++w) {
    for (std::uint64_t sid = 1; sid <= kCityResident; ++sid) {
      client.send(sid, 0, false);
    }
    client.drain();
  }
  p.rss_warm_kib = rss_kib();
  const std::int64_t t_anchor = now_ns();
  server.checkpoint_wave_now();
  p.keyframe_ms = seconds_since(t_anchor) * 1e3;
  committer.flush();

  const std::int64_t t0 = now_ns() + 20'000'000;
  const double cpu0 = process_cpu_s();
  cache.start();
  for (const Event& e : plan.events) {
    client.poll(false);
    const std::int64_t due = t0 + e.due_ns;
    if (now_ns() < due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    clock_us.store(static_cast<std::uint64_t>(e.due_ns / 1000),
                   std::memory_order_relaxed);
    switch (e.kind) {
      case Event::kEpoch: client.send(e.sid, due, true); break;
      case Event::kHello: client.open(e.sid, track(e.sid), 0); break;
      case Event::kBye: client.close(e.sid); break;
    }
  }
  client.drain();
  p.window_s = seconds_since(t0);
  p.cpu_s = process_cpu_s() - cpu0;
  cache.stop(p);

  server.checkpoint_wave_now();  // clean-shutdown flush of the last epochs
  committer.flush();
  p.ckpt = server.checkpoint_stats();
  p.committer = committer.stats();
  p.live = server.live_sessions();
  p.tally = std::move(client.tally);
  p.traced = traced;
  p.seed_of = seed_of;
  return p;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  std::size_t samples{0};
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const Pass& p, const std::vector<double>& setup_s) {
  const Tally& t = p.tally;
  const double correct = static_cast<double>(t.correct);
  const double kib = p.rss_warm_kib - p.rss_before_kib;
  return {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"epoch_latency_p50_ms", pct(t.latency_ms, 50.0), "ms", t.latency_ms.size()},
      {"epoch_latency_p99_ms", pct(t.latency_ms, 99.0), "ms", t.latency_ms.size()},
      {"goodput_eps", per(correct, p.window_s), "epochs/s", t.correct},
      {"cpu_us_per_epoch", per(p.cpu_s * 1e6, correct), "us", t.correct},
      {"served_frac",
       per(static_cast<double>(t.attempted - t.failed),
           static_cast<double>(t.attempted)),
       "ratio", t.attempted},
      {"fix_error_mean_m", per(t.fix_error_sum, correct), "m", t.correct},
      {"gps_off_frac", per(correct - static_cast<double>(t.gps_on), correct),
       "ratio", t.correct},
      {"rss_per_session_kib", per(kib, static_cast<double>(p.sessions)), "KiB",
       p.sessions},
      {"checkpoint_bytes_per_session",
       per(static_cast<double>(p.ckpt.keyframe_bytes),
           static_cast<double>(p.ckpt.keyframe_records)),
       "B", p.ckpt.keyframe_records},
  };
}

std::vector<Metric> per_layer(const Pass& p, const Pass& untraced) {
  const Tally& t = p.tally;
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double v, const char* unit,
                        std::size_t n) { m.push_back({std::move(name), v, unit, n}); };
  const auto dist = [&add](const std::string& name, const std::vector<double>& v,
                           double q, const char* suffix, const char* unit) {
    add(name + suffix, pct(v, q), unit, v.size());
  };

  dist("svc.submit_epoch_us", t.submit_epoch_us, 50, ".p50", "us");
  dist("svc.submit_epoch_us", t.submit_epoch_us, 99, ".p99", "us");
  dist("svc.submit_hello_us", t.submit_hello_us, 99, ".p99", "us");
  dist("svc.submit_bye_us", t.submit_bye_us, 50, ".p50", "us");
  for (const svc::ErrorCode c :
       {svc::ErrorCode::kMalformed, svc::ErrorCode::kUnknownSession,
        svc::ErrorCode::kBackpressure, svc::ErrorCode::kShuttingDown,
        svc::ErrorCode::kSessionExists}) {
    const auto it = t.refused.find(c);
    add(std::string("svc.refused.") + error_name(c),
        it == t.refused.end() ? 0.0 : static_cast<double>(it->second), "count",
        t.attempted);
  }

  dist("svc.ingress_wait_us", t.ingress_wait_us, 99, ".p99", "us");
  dist("svc.queue_wait_us", t.queue_wait_us, 50, ".p50", "us");
  dist("svc.queue_wait_us", t.queue_wait_us, 99, ".p99", "us");
  add("svc.worker_busy_frac",
      per(t.service_ns_sum * 1e-9, p.workers * p.window_s), "ratio",
      t.service_us.size());

  const double served = static_cast<double>(t.service_us.size());
  for (std::size_t i = 0; i < kSchemes; ++i) {
    const std::string base = std::string("scheme.") + kSchemeNames[i];
    dist(base + ".localize_us", t.scheme_us[i], 50, ".p50", "us");
    add(base + ".localize_us.share", per(t.scheme_ns_sum[i], t.service_ns_sum),
        "ratio", t.scheme_us[i].size());
    add(base + ".available_frac",
        per(static_cast<double>(t.available[i]), served), "ratio",
        t.service_us.size());
  }
  add("scheme.cache_hit_ratio",
      per(static_cast<double>(p.cache_hits),
          static_cast<double>(p.cache_hits + p.cache_misses)),
      "ratio", p.cache_hits + p.cache_misses);

  dist("core.predict_fuse_us", t.predict_fuse_us, 50, ".p50", "us");
  add("core.predict_fuse_us.share", per(t.predict_fuse_ns_sum, t.service_ns_sum),
      "ratio", t.predict_fuse_us.size());
  dist("core.epoch_service_us", t.service_us, 50, ".p50", "us");
  dist("core.epoch_service_us", t.service_us, 99, ".p99", "us");
  dist("core.make_uniloc_us", p.make_us, 50, ".p50", "us");

  std::vector<double> delta_ms, keyframe_ms;
  double delta_ns = 0.0, delta_records = 0.0, delta_bytes = 0.0;
  for (const WaveSample& w : t.waves) {
    if (w.keyframe) {
      keyframe_ms.push_back(w.ms);
      continue;
    }
    delta_ms.push_back(w.ms);
    delta_ns += w.ms * 1e6;
    delta_records += static_cast<double>(w.records);
    delta_bytes += static_cast<double>(w.bytes);
  }
  keyframe_ms.push_back(p.keyframe_ms);
  dist("svc.delta_wave_ms", delta_ms, 50, ".p50", "ms");
  add("svc.keyframe_wave_ms.max",
      *std::max_element(keyframe_ms.begin(), keyframe_ms.end()), "ms",
      keyframe_ms.size());
  add("svc.wave_us_per_dirty_session", per(delta_ns * 1e-3, delta_records),
      "us", static_cast<std::size_t>(delta_records));
  add("svc.delta_bytes_per_dirty_session", per(delta_bytes, delta_records),
      "B", static_cast<std::size_t>(delta_records));
  add("svc.sync_fallbacks", static_cast<double>(p.ckpt.sync_fallbacks), "count",
      p.ckpt.waves);
  add("svc.publish_failures", static_cast<double>(p.ckpt.publish_failures),
      "count", p.ckpt.waves);
  add("svc.committer.batches", static_cast<double>(p.committer.batches),
      "count", p.ckpt.waves);
  add("svc.restore_us_per_session",
      per(median(p.restore_s) * 1e6, static_cast<double>(p.restored_sessions)),
      "us", p.restore_s.size());
  add("svc.restore_waves_rejected",
      static_cast<double>(p.restore_waves_rejected), "count", p.restore_s.size());

  const double n = static_cast<double>(p.sessions);
  add("mem.arrival_kib_per_session", (p.rss_hello_kib - p.rss_before_kib) / n,
      "KiB", p.sessions);
  add("mem.warm_kib_per_session", (p.rss_warm_kib - p.rss_before_kib) / n,
      "KiB", p.sessions);

  dist("gen.lateness_us", t.lateness_us, 99, ".p99", "us");
  const double cpu_traced = per(p.cpu_s, static_cast<double>(t.correct));
  const double cpu_plain =
      per(untraced.cpu_s, static_cast<double>(untraced.tally.correct));
  add("trace.overhead_frac", per(cpu_traced - cpu_plain, cpu_plain), "ratio",
      t.correct);
  add("trace.layer_sum_frac", per(t.layer_ns_sum, t.latency_ns_sum), "ratio",
      t.service_us.size());
  return m;
}

void print_result(const Pass& p, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %-9s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(p.tally.attempted),
              static_cast<unsigned long long>(p.tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The sampled spans of a traced pass as CSV, times in us from the first row.
void write_spans(const std::filesystem::path& file, const Tally& t) {
  if (file.empty() || t.spans.empty()) return;
  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path());
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "session,epoch,due_us,send_us,sent_us,first_scheme_us,"
                  "last_scheme_us,done_us");
  for (const char* name : kSchemeNames) std::fprintf(f, ",%s_us", name);
  std::fprintf(f, "\n");
  const std::int64_t base = t.spans.front().due_ns;
  const auto us = [base](std::int64_t ns) {
    return static_cast<double>(ns - base) * 1e-3;
  };
  for (const SpanRow& r : t.spans) {
    std::fprintf(f, "%llu,%zu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f",
                 static_cast<unsigned long long>(r.session_id), r.epoch,
                 us(r.due_ns), us(r.send_ns), us(r.sent_ns),
                 us(r.first_entry_ns), us(r.last_exit_ns), us(r.done_ns));
    for (const std::int64_t ns : r.scheme_ns) {
      std::fprintf(f, ",%.3f", static_cast<double>(ns) * 1e-3);
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
}

/// A run is invalid when the generator, not the server, set the pace.
bool generator_kept_up(const Pass& p) {
  const double lateness_p99 = pct(p.tally.lateness_us, 99.0);
  if (lateness_p99 <= kMaxLatenessUs) return true;
  std::fprintf(stderr, "run invalid: generator lateness p99 %.0f us > %.0f us\n",
               lateness_p99, kMaxLatenessUs);
  return false;
}

// ---- main -------------------------------------------------------------------

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      o.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else if (key == "--spans") {
      o.spans = val;
    } else {
      return std::nullopt;
    }
  }
  if ((o.workload != "campus_saturate" && o.workload != "city_churn") ||
      !(o.seconds > 0.0) || !have_trace || o.work_dir.empty()) {
    return std::nullopt;
  }
  return o;
}

/// One more set-up as the pass did it: venue, server, initial hellos.
double time_setup(bool campus, const std::vector<Track>& tracks) {
  const std::int64_t t0 = now_ns();
  const Venue venue = make_venue();
  const auto track = [&tracks](std::uint64_t sid) -> const Track& {
    return tracks[(sid - 1) % tracks.size()];
  };
  svc::ServerConfig cfg;
  cfg.workers = campus ? kCampusWorkers : kCityWorkers;
  Server server(cfg, plain_factory(venue, [&track](std::uint64_t sid) {
                  return track(sid).spec.uniloc_seed;
                }));
  Completions done;
  Client client(server, done, false, false);
  const std::size_t n = campus ? kPhones : kCityResident;
  for (std::uint64_t sid = 1; sid <= n; ++sid) client.open(sid, track(sid), 0);
  return seconds_since(t0);
}

int run(const Options& opt) {
  const bool campus = opt.workload == "campus_saturate";
  const std::filesystem::path dir = opt.work_dir / "checkpoints";
  const std::int64_t t0 = now_ns();
  const Venue venue = make_venue();
  const double venue_s = seconds_since(t0);

  // Inputs and the inline reference (not part of set-up).
  std::optional<CityPlan> plan;
  if (!campus) plan = plan_city(opt.seed, opt.seconds);
  const std::vector<Track> tracks =
      record_tracks(venue, campus ? campus_specs() : plan->specs);
  if (tracks.empty()) throw CheckFailed("inline reference replay failed");
  std::size_t epochs = 0;
  for (const Track& t : tracks) epochs += t.size();
  std::printf("%s: seed %llu, %zu tracks / %zu reference epochs, venue %.2f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              tracks.size(), epochs, venue_s);

  const auto pass = [&](bool traced) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return campus ? run_campus(venue, tracks, opt, traced, dir)
                  : run_city(venue, tracks, *plan, traced, dir);
  };
  const auto restore = [&](Pass& p) {
    restore_and_check(p, venue, dir, campus);
  };

  if (opt.trace) {
    // Wrapper proof: the probed ensemble serves the reference replies.
    if (!replays_match(tracks,
                       probed_factory(venue,
                                      [&tracks](std::uint64_t sid) {
                                        return tracks[sid - 1].spec.uniloc_seed;
                                      },
                                      nullptr))) {
      throw CheckFailed("wrapped ensemble differs from core::make_uniloc");
    }
    Pass traced = pass(true);
    restore(traced);
    const Pass plain = pass(false);
    if (!generator_kept_up(traced) || !generator_kept_up(plain)) return 3;
    write_spans(opt.spans, traced.tally);
    const std::vector<Metric> metrics = per_layer(traced, plain);
    for (const Metric& m : metrics) {
      if (m.name == "trace.layer_sum_frac" && std::abs(m.value - 1.0) > 0.05) {
        throw CheckFailed("traced layers do not add up to the latency");
      }
    }
    print_result(traced, metrics);
    return 0;
  }

  std::vector<double> setup_s;
  for (int i = 0; i < kRounds; ++i) {
    setup_s.push_back(time_setup(campus, tracks));
  }
  Pass p = pass(false);
  if (!generator_kept_up(p)) return 3;
  setup_s.push_back(venue_s + p.start_s);
  for (int i = 0; i < kRounds; ++i) {
    restore(p);
    setup_s.push_back(time_setup(campus, tracks));
  }
  std::filesystem::remove_all(dir);
  std::printf("setup_s samples:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  // Restore time is shown, not gated: one restore runs on one core, and on
  // a shared VM single-core speed flips between modes across runs.
  std::printf("\nrestore_s: median %.5f of %zu cold restores (%.5f .. %.5f)\n",
              median(p.restore_s), p.restore_s.size(),
              *std::min_element(p.restore_s.begin(), p.restore_s.end()),
              *std::max_element(p.restore_s.begin(), p.restore_s.end()));
  print_result(p, end_to_end(p, setup_s));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Options> opt = perfbench::parse(argc, argv);
  if (!opt.has_value()) {
    std::fprintf(stderr,
                 "usage: uniloc_perfbench --workload campus_saturate|city_churn "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--spans FILE]\n");
    return 1;
  }
  try {
    return perfbench::run(*opt);
  } catch (const perfbench::CheckFailed& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    return 2;
  }
}
