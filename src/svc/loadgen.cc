#include "svc/loadgen.h"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "core/local_fallback.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "stats/rng.h"
#include "svc/epoch_codec.h"

namespace uniloc::svc {

namespace {

/// One phone-side walker and its protocol + degradation state.
struct Client {
  std::uint64_t session_id{0};
  std::size_t walkway{0};
  std::unique_ptr<sim::Walker> walker;
  offload::PhoneAgent phone;
  std::unique_ptr<Link> link;
  /// Backoff-jitter stream, seeded from (seed, session_id) -- consumed
  /// only on retries, so a clean run never touches it.
  stats::Rng jitter;
  bool gps_enabled{true};  ///< Last duty decision echoed by the server.
  bool active{true};
  std::size_t submitted{0};
  double error_sum{0.0};

  // --- degradation state machine ------------------------------------
  bool degraded{false};
  /// Degraded epochs left before the next server probe (>= 1 invariant).
  std::size_t until_probe{0};
  core::LocalFallback fallback;
  geo::Vec2 last_fix;          ///< Last accepted server estimate.
  bool have_fix{false};
  double last_heading{0.0};    ///< Last quantized step heading seen.

  WalkerOutcome outcome;

  Client() : jitter(0) {}
};

struct Pending {
  Client* client{nullptr};
  std::future<LinkReply> reply;
  geo::Vec2 truth;
  double step_heading{0.0};
  double step_distance{0.0};
  /// Kept verbatim for retransmission after a timeout.
  std::vector<std::uint8_t> request;
  std::size_t wire_up{0};
  bool is_probe{false};  ///< Degraded-mode probe: single attempt, no retry.
  obs::Stopwatch started;
  EpochEvent ev;
  /// Open client.epoch span (zero handle when tracing is detached);
  /// every attempt span hangs off it, and collect() closes it.
  obs::SpanHandle root;
};

struct Instruments {
  obs::Counter* up_bytes{nullptr};
  obs::Counter* down_bytes{nullptr};
  obs::Counter* retries{nullptr};
  obs::Counter* timeouts{nullptr};
  obs::Counter* degraded_enter{nullptr};
  obs::Counter* degraded_exit{nullptr};
  obs::Counter* degraded_epochs{nullptr};
  obs::Counter* rehello{nullptr};
};

struct Ctx {
  const LoadGenConfig& cfg;
  LoadReport& report;
  Instruments ins;
};

void charge_uplink(Ctx& ctx, std::size_t bytes, bool retransmit) {
  ctx.report.traffic.uplink_bytes += bytes;
  if (ctx.ins.up_bytes != nullptr) ctx.ins.up_bytes->inc(bytes);
  if (retransmit) {
    ctx.report.traffic.retransmitted_bytes += bytes;
    ++ctx.report.traffic.retransmits;
  }
}

void record_event(Ctx& ctx, Client& c, const EpochEvent& ev) {
  if (ctx.cfg.resilience.record_timeline) c.outcome.timeline.push_back(ev);
}

void flight_note(Ctx& ctx, std::uint64_t session_id, std::uint64_t epoch,
                 obs::FlightKind kind, std::int64_t a = 0,
                 std::int64_t b = 0, double x = 0.0) {
  if (ctx.cfg.flight == nullptr) return;
  obs::FlightEvent ev;
  ev.session_id = session_id;
  ev.epoch = epoch;
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  ev.x = x;
  ctx.cfg.flight->record(ev);
}

void count_timeout(Ctx& ctx, Client& c) {
  ++c.outcome.timeouts;
  if (ctx.ins.timeouts != nullptr) ctx.ins.timeouts->inc();
}

void enter_degraded(Ctx& ctx, Client& c, EpochEvent& ev) {
  c.degraded = true;
  c.until_probe = std::max<std::size_t>(ctx.cfg.resilience.probe_period, 1);
  ++c.outcome.fallback_entries;
  ev.entered_fallback = true;
  if (ctx.ins.degraded_enter != nullptr) ctx.ins.degraded_enter->inc();
  flight_note(ctx, c.session_id, ev.epoch, obs::FlightKind::kFallbackEnter);
  if (ctx.cfg.resilience.local_fallback) {
    // Dead-reckon from the best position knowledge the phone has: the
    // last server fix, or the walk's start if none ever arrived.
    if (c.have_fix) {
      c.fallback.seed(c.last_fix, c.last_heading);
    } else {
      c.fallback.seed(c.walker->start_position(),
                      c.walker->start_heading());
    }
  }
}

void exit_degraded(Ctx& ctx, Client& c, EpochEvent& ev) {
  c.degraded = false;
  ++c.outcome.fallback_exits;
  ev.exited_fallback = true;
  if (ctx.ins.degraded_exit != nullptr) ctx.ins.degraded_exit->inc();
  flight_note(ctx, c.session_id, ev.epoch, obs::FlightKind::kFallbackExit);
}

/// Serve one epoch without the server: PDR dead-reckoning when the
/// fallback is enabled, otherwise the epoch is counted as an error.
void serve_local(Ctx& ctx, Client& c, geo::Vec2 truth, double heading,
                 double distance, EpochEvent& ev) {
  if (ctx.cfg.resilience.local_fallback && c.fallback.seeded()) {
    const geo::Vec2 estimate = c.fallback.advance(heading, distance);
    ++c.outcome.local_epochs;
    ++ctx.report.local_epochs_total;
    if (ctx.ins.degraded_epochs != nullptr) ctx.ins.degraded_epochs->inc();
    c.error_sum += geo::distance(estimate, truth);
    ev.source = EpochEvent::Source::kLocal;
    ev.estimate = estimate;
    ev.error_m = geo::distance(estimate, truth);
    flight_note(ctx, c.session_id, ev.epoch, obs::FlightKind::kLocalEpoch,
                0, 0, ev.error_m);
  } else {
    ++c.outcome.errors;
    ev.source = EpochEvent::Source::kSkipped;
  }
  ev.degraded_after = c.degraded;
  record_event(ctx, c, ev);
}

/// How much virtual time one failed/late attempt cost the client.
std::uint64_t attempt_cost_us(const LinkReply& r, const RetryPolicy& p) {
  switch (r.status) {
    case LinkReply::Status::kDown:
      return p.unreachable_latency_us;
    case LinkReply::Status::kDropped:
      return p.timeout_us;
    case LinkReply::Status::kOk:
      return std::min<std::uint64_t>(r.delay_us, p.timeout_us);
  }
  return p.timeout_us;
}

enum class Verdict : std::uint8_t {
  kAccepted,
  kRetryable,     ///< Timeout / loss / corruption: resend the same frame.
  kSessionLost,   ///< kUnknownSession: the server evicted us; re-hello.
  kBackpressure,  ///< Explicit overload signal; the epoch is shed, not
                  ///< retried (retrying would amplify the overload).
  kFatal,         ///< kShuttingDown and friends: give up on the epoch.
};

struct Classified {
  Verdict verdict{Verdict::kFatal};
  std::optional<EpochReply> epoch_reply;
};

Classified classify(Ctx& ctx, Client& c, const LinkReply& r,
                    const RetryPolicy& policy) {
  if (r.status != LinkReply::Status::kOk) {
    count_timeout(ctx, c);
    return {Verdict::kRetryable, std::nullopt};
  }
  if (r.delay_us > policy.timeout_us) {
    // The reply exists but arrived after the client stopped waiting.
    count_timeout(ctx, c);
    return {Verdict::kRetryable, std::nullopt};
  }
  const DecodeResult decoded = decode_frame(r.bytes);
  if (!decoded.frame.has_value()) {
    ++c.outcome.errors;  // reply corrupted in transit
    return {Verdict::kRetryable, std::nullopt};
  }
  const Frame& reply = *decoded.frame;
  if (reply.type == FrameType::kError) {
    switch (error_code(reply).value_or(ErrorCode::kMalformed)) {
      case ErrorCode::kBackpressure:
        ++c.outcome.backpressure;
        return {Verdict::kBackpressure, std::nullopt};
      case ErrorCode::kUnknownSession:
        return {Verdict::kSessionLost, std::nullopt};
      case ErrorCode::kMalformed:
        ++c.outcome.errors;  // request corrupted in transit
        return {Verdict::kRetryable, std::nullopt};
      default:
        ++c.outcome.errors;
        return {Verdict::kFatal, std::nullopt};
    }
  }
  const std::optional<EpochReply> epoch_reply =
      parse_epoch_reply(reply.payload);
  if (!epoch_reply.has_value()) {
    ++c.outcome.errors;
    return {Verdict::kRetryable, std::nullopt};
  }
  return {Verdict::kAccepted, epoch_reply};
}

void accept_reply(Ctx& ctx, Client& c, Pending& p, const EpochReply& reply,
                  std::size_t attempts) {
  c.gps_enabled = reply.gps_enable_next;
  const geo::Vec2 estimate = reply.downlink.decoded();
  c.outcome.final_estimate = estimate;
  c.last_fix = estimate;
  c.have_fix = true;
  c.error_sum += geo::distance(estimate, p.truth);
  ++c.outcome.epochs_accepted;
  ctx.report.latencies_us.push_back(p.started.elapsed_us());
  ctx.report.traffic.downlink_bytes += reply_wire_bytes();
  ++ctx.report.traffic.epochs;
  if (ctx.ins.down_bytes != nullptr) {
    ctx.ins.down_bytes->inc(reply_wire_bytes());
  }
  p.ev.source = EpochEvent::Source::kServer;
  p.ev.attempts = attempts;
  p.ev.estimate = estimate;
  p.ev.error_m = geo::distance(estimate, p.truth);
  flight_note(ctx, c.session_id, p.ev.epoch,
              obs::FlightKind::kEpochAccepted,
              static_cast<std::int64_t>(attempts), 0, p.ev.error_m);
  if (c.degraded) exit_degraded(ctx, c, p.ev);
  p.ev.degraded_after = c.degraded;
  record_event(ctx, c, p.ev);
}

/// Resend the pending epoch frame (a retransmission: the radio pays
/// again, and the retry counters advance). `attempt` is the 1-based
/// attempt number this send represents.
LinkReply resend(Ctx& ctx, Client& c, Pending& p, std::size_t attempt) {
  ++c.outcome.retries;
  if (ctx.ins.retries != nullptr) ctx.ins.retries->inc();
  flight_note(ctx, c.session_id, p.ev.epoch, obs::FlightKind::kRetry,
              static_cast<std::int64_t>(attempt));
  charge_uplink(ctx, p.wire_up, /*retransmit=*/true);
  if (ctx.cfg.tracer != nullptr) {
    const obs::SpanHandle span =
        ctx.cfg.tracer->begin("client.attempt", "client", p.root.trace_id,
                              p.root.span_id, c.session_id);
    obs::TraceScope scope({p.root.trace_id, span.span_id, c.session_id});
    LinkReply r = c.link->send(p.request).get();
    ctx.cfg.tracer->end(span, "retry");
    return r;
  }
  return c.link->send(p.request).get();
}

/// Re-open the session, seeded at the phone's best local estimate, so
/// server and phone reconcile after an eviction. Returns true when the
/// server acknowledged (or reported the session still live).
bool try_rehello(Ctx& ctx, Client& c, Pending& p) {
  HelloPayload hello;
  if (ctx.cfg.resilience.local_fallback && c.fallback.seeded()) {
    hello.start = c.fallback.estimate();
    hello.heading = c.fallback.heading();
  } else if (c.have_fix) {
    hello.start = c.last_fix;
    hello.heading = c.last_heading;
  } else {
    hello.start = c.walker->start_position();
    hello.heading = c.walker->start_heading();
  }
  Frame frame;
  frame.type = FrameType::kHello;
  frame.session_id = c.session_id;
  frame.payload = encode_hello(hello);
  charge_uplink(ctx, kHeaderBytes + HelloPayload::kBytes,
                /*retransmit=*/false);
  LinkReply r;
  {
    obs::ScopedSpan span(ctx.cfg.tracer, "client.rehello", "client",
                         p.root.trace_id, p.root.span_id, c.session_id);
    obs::TraceScope scope({p.root.trace_id, span.id(), c.session_id});
    r = c.link->send(encode_frame(frame)).get();
  }
  if (r.status != LinkReply::Status::kOk ||
      r.delay_us > ctx.cfg.resilience.retry.timeout_us) {
    count_timeout(ctx, c);
    return false;
  }
  const DecodeResult decoded = decode_frame(r.bytes);
  if (!decoded.frame.has_value()) {
    ++c.outcome.errors;
    return false;
  }
  const Frame& reply = *decoded.frame;
  const bool ok =
      reply.type == FrameType::kReply ||
      (reply.type == FrameType::kError &&
       error_code(reply) == ErrorCode::kSessionExists);
  if (!ok) {
    ++c.outcome.errors;
    return false;
  }
  ++c.outcome.rehellos;
  if (ctx.ins.rehello != nullptr) ctx.ins.rehello->inc();
  flight_note(ctx, c.session_id, p.ev.epoch, obs::FlightKind::kRehello);
  p.ev.rehello = true;
  return true;
}

/// Drive one pending epoch to completion: classify the reply, retry with
/// backoff within budget, re-hello on session loss, and fall back to the
/// local dead-reckoner when the budget is exhausted. Returns the note
/// for the epoch's root span.
const char* collect_reply(Ctx& ctx, Pending& p) {
  Client& c = *p.client;
  const RetryPolicy& policy = ctx.cfg.resilience.retry;
  const std::size_t budget = p.is_probe ? 1 : 1 + policy.max_retries;
  std::size_t attempts = 1;
  bool rehello_burned = false;

  LinkReply r = p.reply.get();
  for (;;) {
    Classified cls = classify(ctx, c, r, policy);
    switch (cls.verdict) {
      case Verdict::kAccepted:
        accept_reply(ctx, c, p, *cls.epoch_reply, attempts);
        return "accepted";
      case Verdict::kBackpressure:
      case Verdict::kFatal:
        p.ev.source = EpochEvent::Source::kSkipped;
        p.ev.attempts = attempts;
        p.ev.degraded_after = c.degraded;
        record_event(ctx, c, p.ev);
        return "shed";
      case Verdict::kSessionLost:
        if (!rehello_burned) {
          rehello_burned = true;
          if (try_rehello(ctx, c, p)) {
            ++attempts;
            r = resend(ctx, c, p, attempts);
            continue;
          }
        }
        break;  // fall through to the retry/give-up path
      case Verdict::kRetryable:
        break;
    }

    if (ctx.cfg.clock != nullptr) {
      ctx.cfg.clock->advance_us(attempt_cost_us(r, policy));
    }
    if (attempts >= budget) {
      // Budget exhausted: the link is declared down for this phone.
      p.ev.attempts = attempts;
      flight_note(ctx, c.session_id, p.ev.epoch, obs::FlightKind::kTimeout,
                  static_cast<std::int64_t>(attempts));
      if (!c.degraded) {
        enter_degraded(ctx, c, p.ev);
      } else {
        // Failed probe: back off for another probe_period epochs.
        c.until_probe =
            std::max<std::size_t>(ctx.cfg.resilience.probe_period, 1);
      }
      serve_local(ctx, c, p.truth, p.step_heading, p.step_distance, p.ev);
      return "degraded";
    }
    const std::uint64_t backoff =
        policy.backoff_us(attempts - 1, c.jitter.uniform());
    if (ctx.cfg.clock != nullptr) ctx.cfg.clock->advance_us(backoff);
    ++attempts;
    r = resend(ctx, c, p, attempts);
  }
}

void collect(Ctx& ctx, Pending& p) {
  const char* note = collect_reply(ctx, p);
  if (ctx.cfg.tracer != nullptr) ctx.cfg.tracer->end(p.root, note);
}

}  // namespace

LoadReport run_load(LocalizationServer& server, const core::Deployment& d,
                    const LoadGenConfig& cfg,
                    obs::MetricsRegistry* registry) {
  // The schemes running on worker threads query the shared Place; build
  // its lazy wall index now, while we are still single-threaded.
  d.place->prebuild_wall_index();

  LoadReport report;
  Ctx ctx{cfg, report, {}};
  if (registry != nullptr) {
    ctx.ins.up_bytes = &registry->counter("offload.uplink_bytes");
    ctx.ins.down_bytes = &registry->counter("offload.downlink_bytes");
    ctx.ins.retries = &registry->counter("fault.retries");
    ctx.ins.timeouts = &registry->counter("fault.timeouts");
    ctx.ins.degraded_enter = &registry->counter("svc.degraded.enter");
    ctx.ins.degraded_exit = &registry->counter("svc.degraded.exit");
    ctx.ins.degraded_epochs = &registry->counter("svc.degraded.epochs");
    ctx.ins.rehello = &registry->counter("svc.degraded.rehello");
  }

  const std::size_t n_paths = d.place->walkways().size();
  std::vector<Client> clients(cfg.walkers);
  for (std::size_t i = 0; i < cfg.walkers; ++i) {
    Client& c = clients[i];
    c.session_id = cfg.first_session_id + i;
    c.walkway = i % n_paths;
    sim::WalkConfig wc = cfg.walk;
    wc.seed = cfg.seed + 17 * i;
    c.walker = std::make_unique<sim::Walker>(d.place.get(), d.radio.get(),
                                             c.walkway, wc);
    c.phone.reset(c.walker->start_heading());
    c.last_heading = c.walker->start_heading();
    c.jitter = stats::Rng(stats::hash_combine(cfg.seed, c.session_id));
    c.outcome.session_id = c.session_id;
    c.outcome.walkway = c.walkway;

    // The initial hello runs over the perfect wire: a deployment pairs
    // the phone with the service before it walks into trouble, and the
    // fault schedule's send indices then line up with epoch submissions.
    Frame hello;
    hello.type = FrameType::kHello;
    hello.session_id = c.session_id;
    hello.payload = encode_hello(
        {c.walker->start_position(), c.walker->start_heading()});
    server.submit(encode_frame(hello)).get();

    c.link = cfg.make_link ? cfg.make_link(server, c.session_id)
                           : std::make_unique<DirectLink>(&server);
  }

  std::vector<Pending> pending;
  pending.reserve(cfg.walkers * std::max<std::size_t>(cfg.burst, 1));

  const obs::Stopwatch wall;
  std::size_t round_index = 0;
  for (;;) {
    pending.clear();
    if (cfg.clock != nullptr) cfg.clock->advance_s(cfg.epoch_period_s);
    for (Client& c : clients) {
      if (!c.active) continue;
      for (std::size_t b = 0; b < std::max<std::size_t>(cfg.burst, 1); ++b) {
        const bool capped = cfg.max_epochs_per_walker > 0 &&
                            c.submitted >= cfg.max_epochs_per_walker;
        if (c.walker->done() || capped) {
          c.active = false;
          break;
        }
        const sim::SensorFrame frame = c.walker->step(c.gps_enabled);
        const offload::UplinkFrame uplink = c.phone.reduce(frame);
        const double step_heading =
            uplink.step.has_value() ? uplink.step->heading() : c.last_heading;
        const double step_distance =
            uplink.step.has_value() ? uplink.step->distance() : 0.0;
        c.last_heading = step_heading;

        EpochEvent ev;
        ev.epoch = c.submitted;
        ++c.submitted;

        bool probe = false;
        if (c.degraded) {
          --c.until_probe;
          if (c.until_probe == 0) {
            probe = true;  // this epoch goes to the server as a probe
          } else {
            serve_local(ctx, c, frame.truth_pos, step_heading,
                        step_distance, ev);
            continue;
          }
        }

        Frame request;
        request.type = FrameType::kEpoch;
        request.session_id = c.session_id;
        request.payload = encode_epoch(uplink, frame);

        Pending p;
        p.client = &c;
        p.truth = frame.truth_pos;
        p.step_heading = step_heading;
        p.step_distance = step_distance;
        p.request = encode_frame(request);
        p.wire_up = epoch_wire_bytes(uplink);
        p.is_probe = probe;
        p.ev = ev;
        charge_uplink(ctx, p.wire_up, /*retransmit=*/false);
        flight_note(ctx, c.session_id, ev.epoch,
                    obs::FlightKind::kEpochSubmit, 0, probe ? 1 : 0);
        if (cfg.tracer != nullptr) {
          p.root = cfg.tracer->begin("client.epoch", "client",
                                     cfg.tracer->next_trace_id(), 0,
                                     c.session_id);
          const obs::SpanHandle attempt =
              cfg.tracer->begin("client.attempt", "client", p.root.trace_id,
                                p.root.span_id, c.session_id);
          obs::TraceScope scope(
              {p.root.trace_id, attempt.span_id, c.session_id});
          p.reply = c.link->send(p.request);
          cfg.tracer->end(attempt);
        } else {
          p.reply = c.link->send(p.request);
        }
        pending.push_back(std::move(p));
        // Degraded sessions are strictly stop-and-wait: nothing is
        // pipelined behind an outstanding probe.
        if (probe) break;
      }
    }
    bool all_done = true;
    for (const Client& c : clients) {
      if (c.active) {
        all_done = false;
        break;
      }
    }
    for (Pending& p : pending) collect(ctx, p);
    if (cfg.on_round) cfg.on_round(round_index);
    ++round_index;
    if (all_done && pending.empty()) break;  // every walker finished
  }
  report.wall_s = wall.elapsed_us() / 1e6;

  for (Client& c : clients) {
    Frame bye;
    bye.type = FrameType::kBye;
    bye.session_id = c.session_id;
    server.submit(encode_frame(bye)).get();

    const std::size_t estimated =
        c.outcome.epochs_accepted + c.outcome.local_epochs;
    if (estimated > 0) {
      c.outcome.mean_error_m = c.error_sum / static_cast<double>(estimated);
    }
    report.total_epochs += c.outcome.epochs_accepted;
    report.backpressure_total += c.outcome.backpressure;
    report.error_total += c.outcome.errors;
    report.retries_total += c.outcome.retries;
    report.timeouts_total += c.outcome.timeouts;
    report.walkers.push_back(c.outcome);
  }
  return report;
}

}  // namespace uniloc::svc
