#include "svc/server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/epoch_scratch.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timer.h"
#include "offload/bytes.h"
#include "offload/payload.h"
#include "svc/delta.h"
#include "svc/epoch_codec.h"

namespace uniloc::svc {

namespace {

/// The calling thread's epoch arena. Sessions hold state, threads hold
/// scratch: every epoch this thread runs -- as a pool worker, the inline
/// workers == 0 caller, or a thread draining behind run_exclusive (a
/// wave fill on the committer thread, a snapshot()) -- reuses this one
/// EpochScratch, whichever session it serves. Nothing in it carries
/// from one epoch to the next (core/epoch_scratch.h), so replies are
/// unchanged.
core::EpochScratch& thread_scratch() {
  thread_local core::EpochScratch scratch;
  return scratch;
}

}  // namespace

LocalizationServer::LocalizationServer(ServerConfig cfg,
                                       UnilocFactory factory,
                                       obs::MetricsRegistry* registry)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      registry_(registry),
      sessions_(cfg_.stripes),
      pool_(ThreadPool::Config{cfg_.workers, cfg_.pool_queue_capacity}) {
  if (registry != nullptr) {
    // Instruments are resolved once here, before any worker can observe;
    // the registry map itself is never touched from a worker thread.
    ins_.live_sessions = &registry->gauge("svc.live_sessions");
    ins_.queue_depth = &registry->gauge("svc.queue_depth");
    ins_.accepted = &registry->counter("svc.accepted");
    ins_.rejected = &registry->counter("svc.rejected");
    ins_.evicted = &registry->counter("svc.evicted");
    ins_.malformed = &registry->counter("svc.malformed");
    ins_.status_requests = &registry->counter("svc.status_requests");
    ins_.request_us = &registry->histogram("svc.request_us");
    ins_.parse_us = &registry->histogram("svc.parse_us");
    ins_.locate_us = &registry->histogram("svc.locate_us");
    ins_.perf_cache_hits = &registry->counter("perf.cache_hits");
    ins_.perf_cache_misses = &registry->counter("perf.cache_misses");
    ins_.perf_scratch_bytes = &registry->gauge("perf.scratch_bytes");
  }
}

LocalizationServer::~LocalizationServer() { shutdown(); }

std::uint64_t LocalizationServer::now_us() const {
  if (cfg_.now_us) return cfg_.now_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Counters and gauges are internally atomic (obs/metrics.h), so the
// count_* paths are lock-free; ins_.mu protects only the histograms.
void LocalizationServer::count_malformed() {
  if (ins_.malformed != nullptr) ins_.malformed->inc();
}

void LocalizationServer::count_accepted() {
  if (ins_.accepted != nullptr) ins_.accepted->inc();
  if (ins_.queue_depth != nullptr) {
    ins_.queue_depth->set(static_cast<double>(pool_.queue_depth()));
  }
}

void LocalizationServer::note_live_sessions() {
  if (ins_.live_sessions != nullptr) {
    ins_.live_sessions->set(static_cast<double>(sessions_.size()));
  }
}

std::future<std::vector<std::uint8_t>> LocalizationServer::reply_now(
    const Frame& reply) {
  std::promise<std::vector<std::uint8_t>> promise;
  promise.set_value(encode_frame(reply));
  return promise.get_future();
}

std::future<std::vector<std::uint8_t>> LocalizationServer::submit(
    std::vector<std::uint8_t> request) {
  bool scan_now = false;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopping_) {
      return reply_now(make_error_frame(0, ErrorCode::kShuttingDown));
    }
    if (++accepted_since_scan_ >= cfg_.evict_scan_period) {
      accepted_since_scan_ = 0;
      scan_now = true;
    }
  }
  if (scan_now) evict_idle();
  if (cfg_.checkpoint_period_us > 0) maybe_checkpoint();

  DecodeResult decoded = decode_frame(request);
  if (!decoded.frame.has_value()) {
    count_malformed();
    return reply_now(make_error_frame(0, ErrorCode::kMalformed));
  }

  Frame frame = std::move(*decoded.frame);
  const Promise promise =
      std::make_shared<std::promise<std::vector<std::uint8_t>>>();
  std::future<std::vector<std::uint8_t>> future = promise->get_future();

  switch (frame.type) {
    case FrameType::kHello:
      handle_hello(frame, promise);
      break;
    case FrameType::kEpoch:
      handle_epoch(std::move(frame), promise);
      break;
    case FrameType::kBye:
      handle_bye(frame, promise);
      break;
    case FrameType::kStatus:
      handle_status(frame, promise);
      break;
    case FrameType::kReply:
    case FrameType::kError:
      // Server-to-client types arriving at the server are client bugs.
      count_malformed();
      promise->set_value(
          encode_frame(make_error_frame(frame.session_id,
                                        ErrorCode::kMalformed)));
      break;
  }
  return future;
}

void LocalizationServer::handle_hello(const Frame& frame,
                                      const Promise& promise) {
  const std::optional<HelloPayload> hello = parse_hello(frame.payload);
  if (!hello.has_value()) {
    count_malformed();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kMalformed)));
    return;
  }
  std::unique_ptr<core::Uniloc> uniloc = factory_(frame.session_id);
  uniloc->reset({hello->start, hello->heading});
  const SessionPtr session =
      sessions_.create(frame.session_id, std::move(uniloc), now_us());
  if (session == nullptr) {
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kSessionExists)));
    return;
  }
  // Session-held ensembles emit core-layer spans (per-scheme localize,
  // fusion) into the server's tracer.
  session->uniloc().attach_tracer(cfg_.tracer);
  if (cfg_.flight != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = frame.session_id;
    ev.kind = obs::FlightKind::kHello;
    cfg_.flight->record(ev);
  }
  count_accepted();
  note_live_sessions();
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = frame.session_id;
  promise->set_value(encode_frame(reply));
}

void LocalizationServer::handle_epoch(Frame frame, const Promise& promise) {
  const SessionPtr session = sessions_.find(frame.session_id);
  if (session == nullptr) {
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kUnknownSession)));
    return;
  }

  const obs::Stopwatch accepted_at;
  const std::uint64_t session_id = frame.session_id;

  // Open the epoch's span tree on the submitting thread: the root
  // adopts the caller's ambient context (the client/link span when one
  // is set), the queue-wait child runs until the strand picks the task
  // up in run_epoch. Handles are values, so they cross to the worker
  // inside the lambda.
  obs::SpanHandle root, queue_wait;
  if (cfg_.tracer != nullptr) {
    root = cfg_.tracer->begin("svc.epoch", "svc", 0, 0, session_id);
    queue_wait = cfg_.tracer->begin("svc.queue_wait", "svc", root.trace_id,
                                    root.span_id, session_id);
  }

  auto payload =
      std::make_shared<std::vector<std::uint8_t>>(std::move(frame.payload));
  Session* raw = session.get();
  const Session::Enqueue verdict = session->enqueue(
      [this, raw, payload, session_id, promise, accepted_at, root,
       queue_wait] {
        run_epoch(*raw, *payload, session_id, promise, accepted_at, root,
                  queue_wait);
      },
      cfg_.inbox_capacity, now_us());

  if (verdict == Session::Enqueue::kBackpressure) {
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->end(queue_wait, "backpressure");
      cfg_.tracer->end(root, "backpressure");
    }
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    if (cfg_.flight != nullptr) {
      obs::FlightEvent ev;
      ev.session_id = session_id;
      ev.epoch = raw->epochs_served();
      ev.kind = obs::FlightKind::kBackpressure;
      cfg_.flight->record(ev);
    }
    promise->set_value(encode_frame(
        make_error_frame(session_id, ErrorCode::kBackpressure)));
    return;
  }
  count_accepted();
  if (verdict == Session::Enqueue::kStartDrain &&
      !pool_.post([session] { session->drain(); })) {
    // Pool is stopping: drain inline so no promise is left dangling.
    session->drain();
  }
}

void LocalizationServer::handle_bye(const Frame& frame,
                                    const Promise& promise) {
  if (!sessions_.erase(frame.session_id)) {
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kUnknownSession)));
    return;
  }
  count_accepted();
  note_live_sessions();
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = frame.session_id;
  promise->set_value(encode_frame(reply));
}

void LocalizationServer::run_epoch(Session& session,
                                   const std::vector<std::uint8_t>& payload,
                                   std::uint64_t session_id,
                                   const Promise& promise,
                                   obs::Stopwatch accepted_at,
                                   obs::SpanHandle root,
                                   obs::SpanHandle queue_wait) {
  obs::SpanTracer* tracer = cfg_.tracer;
  if (tracer != nullptr) tracer->end(queue_wait);

  obs::Stopwatch stage;
  obs::SpanHandle decode_span;
  if (tracer != nullptr) {
    decode_span = tracer->begin("svc.decode", "svc", root.trace_id,
                                root.span_id, session_id);
  }
  const std::optional<EpochRequest> req = parse_epoch(payload);
  const double parse_us = stage.elapsed_us();
  if (!req.has_value()) {
    if (tracer != nullptr) {
      tracer->end(decode_span, "malformed");
      tracer->end(root, "malformed");
    }
    count_malformed();
    if (cfg_.slo != nullptr) {
      cfg_.slo->observe(accepted_at.elapsed_us(), true);
    }
    if (cfg_.flight != nullptr) {
      obs::FlightEvent ev;
      ev.session_id = session_id;
      ev.epoch = session.epochs_served();
      ev.kind = obs::FlightKind::kError;
      cfg_.flight->record(ev);
    }
    promise->set_value(encode_frame(
        make_error_frame(session_id, ErrorCode::kMalformed)));
    return;
  }
  if (tracer != nullptr) tracer->end(decode_span);

  stage.restart();
  // We are on the session strand, and the arena belongs to this thread:
  // both are single-writer even with workers > 0. The cache counters are
  // cumulative (the schemes' per session, the arena's per thread), so
  // this epoch's share is their growth across the call.
  core::EpochScratch& scratch = thread_scratch();
  const auto cache_totals = [&session, &scratch] {
    return std::pair{
        session.uniloc().scheme_cache_hits() + scratch.cache_hits(),
        session.uniloc().scheme_cache_misses() + scratch.cache_misses()};
  };
  const auto [hits0, misses0] = cache_totals();
  obs::SpanHandle locate_span;
  std::optional<obs::TraceScope> scope;
  if (tracer != nullptr) {
    locate_span = tracer->begin("svc.locate", "svc", root.trace_id,
                                root.span_id, session_id);
    // Core-layer spans (per-scheme localize, fusion) adopt this ambient
    // context inside update_fast().
    scope.emplace(
        obs::TraceContext{root.trace_id, locate_span.span_id, session_id});
  }
  const core::EpochDecision& decision =
      session.uniloc().update_fast(req->frame, scratch);
  if (tracer != nullptr) tracer->end(locate_span);
  scope.reset();
  const double locate_us = stage.elapsed_us();

  const auto [hits1, misses1] = cache_totals();
  const std::uint64_t hits_delta = hits1 - hits0;
  const std::uint64_t misses_delta = misses1 - misses0;
  const std::size_t scratch_bytes = scratch.bytes();

  obs::SpanHandle encode_span;
  if (tracer != nullptr) {
    encode_span = tracer->begin("svc.encode", "svc", root.trace_id,
                                root.span_id, session_id);
  }
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = session_id;
  EpochReply epoch_reply;
  epoch_reply.downlink = offload::DownlinkFrame::encode(decision.uniloc2);
  epoch_reply.gps_enable_next = decision.gps_enable_next;
  reply.payload = encode_epoch_reply(epoch_reply);
  promise->set_value(encode_frame(reply));
  if (tracer != nullptr) {
    tracer->end(encode_span);
    tracer->end(root);
  }

  const double request_us = accepted_at.elapsed_us();
  if (cfg_.slo != nullptr) cfg_.slo->observe(request_us, false);
  if (cfg_.flight != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = session_id;
    ev.epoch = session.epochs_served();
    ev.kind = obs::FlightKind::kServerEpoch;
    ev.a = decision.selected;
    ev.b = decision.indoor ? 1 : 0;
    ev.x = decision.tau;
    cfg_.flight->record(ev);
  }

  if (cfg_.on_epoch) cfg_.on_epoch(session_id, decision);

  if (ins_.perf_cache_hits != nullptr && hits_delta > 0) {
    ins_.perf_cache_hits->inc(hits_delta);
  }
  if (ins_.perf_cache_misses != nullptr && misses_delta > 0) {
    ins_.perf_cache_misses->inc(misses_delta);
  }
  if (ins_.perf_scratch_bytes != nullptr) {
    ins_.perf_scratch_bytes->set(static_cast<double>(scratch_bytes));
  }

  std::lock_guard<std::mutex> lock(ins_.mu);
  if (ins_.parse_us != nullptr) ins_.parse_us->observe(parse_us);
  if (ins_.locate_us != nullptr) ins_.locate_us->observe(locate_us);
  if (ins_.request_us != nullptr) ins_.request_us->observe(request_us);
}

void LocalizationServer::handle_status(const Frame& frame,
                                       const Promise& promise) {
  const std::optional<StatusFormat> format =
      parse_status_request(frame.payload);
  if (!format.has_value()) {
    count_malformed();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kMalformed)));
    return;
  }
  if (ins_.status_requests != nullptr) ins_.status_requests->inc();
  const ServerStatus st = status();
  const std::string text = *format == StatusFormat::kJson
                               ? status_json(st, registry_, cfg_.slo)
                               : status_prometheus(st, registry_, cfg_.slo);
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = frame.session_id;
  reply.payload.assign(text.begin(), text.end());
  promise->set_value(encode_frame(reply));
}

ServerStatus LocalizationServer::status() {
  ServerStatus st;
  st.now_us = now_us();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    st.stopping = stopping_;
  }
  st.workers = pool_.workers();
  st.pool_queue_depth = pool_.queue_depth();
  st.pool_active_workers = pool_.active_workers();
  st.pool_tasks_run = pool_.tasks_run();
  st.pool_task_exceptions = pool_.task_exceptions();
  for (const SessionPtr& s : sessions_.all()) {
    SessionStatus ss;
    ss.id = s->id();
    const std::uint64_t last = s->last_active_us();
    ss.age_us = st.now_us > last ? st.now_us - last : 0;
    ss.epochs_served = s->epochs_served();
    ss.queue_depth = s->queue_depth();
    st.sessions.push_back(ss);
  }
  st.live_sessions = st.sessions.size();
  return st;
}

void LocalizationServer::maybe_checkpoint() {
  if (cfg_.checkpoint_dir.empty()) return;
  const std::uint64_t now = now_us();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (now < last_checkpoint_us_ + cfg_.checkpoint_period_us) return;
    last_checkpoint_us_ = now;
  }
  checkpoint_wave_now();
}

void LocalizationServer::checkpoint_wave_now() {
  WaveHeader h;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    h = stamp_wave_locked(force_keyframe_ ||
                          waves_since_keyframe_ + 1 >=
                              std::max<std::size_t>(1, cfg_.keyframe_interval));
  }
  if (cfg_.committer == nullptr) {
    settle_wave(h, write_wave_file(cfg_.checkpoint_dir, h.seq, fill_wave(h)));
    return;
  }
  GroupCommitter::Request req;
  req.dir = cfg_.checkpoint_dir;
  req.name = wave_file_name(h.seq);
  if (cfg_.workers > 0) {
    // The committer thread fills the wave: this thread goes back to
    // serving while the sessions are serialized.
    req.fill = [this, h] { return fill_wave(h); };
  } else {
    // Inline mode keeps every strand task on the caller's thread (a
    // quiesced session drains its queued epochs on the filling thread).
    req.bytes = fill_wave(h);
  }
  req.done = [this, h](bool ok) {
    settle_wave(h, ok);
    std::lock_guard<std::mutex> lock(chain_mu_);
    if (--waves_queued_ == 0) waves_settled_.notify_all();
  };
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    ++waves_queued_;
  }
  if (cfg_.committer->enqueue(std::move(req))) return;
  // Committer backpressure: a checkpoint is never silently dropped --
  // publish synchronously (req is untouched on rejection) and record
  // the stall.
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    --waves_queued_;
    ++ckpt_stats_.sync_fallbacks;
  }
  if (req.fill) {
    // Earlier waves serialize their sessions before this one may clear
    // those sessions' dirty marks.
    await_waves();
    req.bytes = req.fill();
  }
  settle_wave(h, write_wave_file(req.dir, h.seq, req.bytes));
}

void LocalizationServer::settle_wave(const WaveHeader& h, bool ok) {
  // On success a keyframe makes every older wave reclaimable; on failure
  // the chain must re-anchor (the next delta would otherwise link onto a
  // wave that may not be durable).
  if (ok) {
    if (h.kind == kWaveKeyframe) prune_wave_files(cfg_.checkpoint_dir, h.seq);
    return;
  }
  std::lock_guard<std::mutex> lock(chain_mu_);
  force_keyframe_ = true;
  ++ckpt_stats_.publish_failures;
}

void LocalizationServer::await_waves() {
  std::unique_lock<std::mutex> lock(chain_mu_);
  waves_settled_.wait(lock, [this] { return waves_queued_ == 0; });
}

WaveHeader LocalizationServer::stamp_wave_locked(bool keyframe) {
  WaveHeader h;
  h.kind = keyframe ? kWaveKeyframe : kWaveDelta;
  h.payload_version =
      cfg_.snapshot_quantize ? kPayloadQuantized : kPayloadLossless;
  h.seq = ++wave_seq_;
  h.parent_seq = keyframe ? 0 : h.seq - 1;
  if (keyframe) {
    waves_since_keyframe_ = 0;
    force_keyframe_ = false;
  } else {
    ++waves_since_keyframe_;
  }
  return h;
}

std::vector<std::uint8_t> LocalizationServer::snapshot_wave(bool keyframe) {
  WaveHeader h;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    h = stamp_wave_locked(keyframe);
  }
  return fill_wave(h);
}

std::vector<std::uint8_t> LocalizationServer::fill_wave(WaveHeader h,
                                                       bool checkpoint) {
  const obs::Stopwatch fill_time;
  const bool keyframe = h.kind == kWaveKeyframe;
  const bool quantize = h.payload_version == kPayloadQuantized;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    h.accepted_since_scan = static_cast<std::uint64_t>(accepted_since_scan_);
  }
  const std::vector<SessionPtr> sessions = sessions_.all();  // id-sorted
  std::vector<std::uint64_t> members;
  members.reserve(sessions.size());
  for (const SessionPtr& s : sessions) members.push_back(s->id());
  WaveBuilder builder(h, members);
  std::uint64_t records = 0;
  for (const SessionPtr& s : sessions) {
    // The dirty check races benignly with live traffic: a session that
    // turns dirty after the check stays dirty and is caught by the next
    // wave; one that looks dirty but didn't change just costs bytes.
    if (!keyframe && !s->dirty()) continue;
    // Serialize while *holding* the strand, not after a transient idle()
    // check: with live traffic a worker could start the next epoch
    // between the check and the read. run_exclusive claims the strand
    // like a drain would, so the session's state is frozen at an epoch
    // boundary for exactly the duration of its record.
    s->run_exclusive([&] {
      offload::ByteWriter& w = builder.begin_session(
          s->id(), s->last_active_us(),
          static_cast<std::uint64_t>(s->epochs_served()));
      s->uniloc().snapshot_into(w, quantize);
      builder.end_session();
      // Inside the exclusive section: the clean mark covers exactly the
      // state this wave serialized.
      if (checkpoint) s->mark_clean();
    });
    ++records;
  }
  std::vector<std::uint8_t> bytes = builder.finish();
  if (!checkpoint) return bytes;
  const auto fill_us = static_cast<std::uint64_t>(fill_time.elapsed_us());
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    ++ckpt_stats_.waves;
    if (keyframe) {
      ++ckpt_stats_.keyframes;
      ckpt_stats_.keyframe_records += records;
      ckpt_stats_.keyframe_bytes += bytes.size();
      ckpt_stats_.keyframe_fill_us += fill_us;
    } else {
      ckpt_stats_.delta_records += records;
      ckpt_stats_.delta_bytes += bytes.size();
      ckpt_stats_.delta_fill_us += fill_us;
    }
  }
  return bytes;
}

LocalizationServer::ChainRestoreResult LocalizationServer::restore_chain() {
  if (cfg_.checkpoint_dir.empty()) return {};
  std::uint64_t newest = 0;
  const ChainRestoreResult out =
      restore(load_wave_files(cfg_.checkpoint_dir, &newest));
  // Continue past every wave file on disk, rejected and stale ones
  // included: the next keyframe then outranks them all, and the prune
  // behind it removes them.
  std::lock_guard<std::mutex> lock(chain_mu_);
  wave_seq_ = std::max(wave_seq_, newest);
  return out;
}

LocalizationServer::CheckpointStats LocalizationServer::checkpoint_stats()
    const {
  std::lock_guard<std::mutex> lock(chain_mu_);
  return ckpt_stats_;
}

std::vector<std::uint8_t> LocalizationServer::snapshot() {
  WaveHeader h;
  h.kind = kWaveKeyframe;
  h.payload_version = kPayloadLossless;
  h.seq = 1;
  return fill_wave(h, /*checkpoint=*/false);
}

LocalizationServer::ChainRestoreResult LocalizationServer::restore(
    const std::vector<std::vector<std::uint8_t>>& waves) {
  const ChainCollapse chain = collapse_chain(waves);
  ChainRestoreResult out;
  out.deltas_applied = chain.deltas_applied;
  out.waves_rejected = chain.waves_rejected;
  out.seq = chain.seq;
  if (!chain.ok) return out;

  // The restore replaces the whole population; a failure partway leaves
  // an empty server (the caller's recovery story is "retry or re-hello"),
  // never a half-restored mix of old and new sessions.
  sessions_.clear();
  const bool quantized = chain.payload_version == kPayloadQuantized;
  out.ok = true;
  for (const WaveView::Record& rec : chain.records) {
    // Rebuild through the factory (same per-session seeds as the hello
    // path); restore_from then overwrites every field reset() would have
    // initialized, so no reset() call is needed -- or wanted, since it
    // would consume RNG draws the original session never made.
    std::unique_ptr<core::Uniloc> uniloc = factory_(rec.h.id);
    uniloc->attach_tracer(cfg_.tracer);
    offload::ByteReader r(rec.payload, rec.h.payload_len);
    const SessionPtr session =
        uniloc->restore_from(r, quantized) && r.remaining() == 0
            ? sessions_.create(rec.h.id, std::move(uniloc), 0)
            : nullptr;
    if (session == nullptr) {
      out.ok = false;
      break;
    }
    session->restore_bookkeeping(
        rec.h.last_active_us, static_cast<std::size_t>(rec.h.epochs_served));
  }
  if (!out.ok) {
    sessions_.clear();
    note_live_sessions();
    return out;
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    accepted_since_scan_ = static_cast<std::size_t>(chain.accepted_since_scan);
  }
  {
    // Re-anchor: restored sessions all start dirty, and the next
    // periodic wave keyframes them past the restored seq.
    std::lock_guard<std::mutex> lock(chain_mu_);
    wave_seq_ = std::max(wave_seq_, chain.seq);
    force_keyframe_ = true;
  }
  if (cfg_.flight != nullptr) {
    for (const SessionPtr& s : sessions_.all()) {
      obs::FlightEvent ev;
      ev.session_id = s->id();
      ev.epoch = s->epochs_served();
      ev.kind = obs::FlightKind::kRestore;
      cfg_.flight->record(ev);
    }
  }
  note_live_sessions();
  return out;
}

void LocalizationServer::crash() {
  await_waves();
  sessions_.clear();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    accepted_since_scan_ = 0;
    last_checkpoint_us_ = 0;
  }
  note_live_sessions();
}

std::size_t LocalizationServer::evict_idle() {
  const std::size_t evicted = sessions_.evict_idle(
      now_us(), static_cast<std::uint64_t>(cfg_.idle_ttl_s * 1e6));
  if (evicted > 0) {
    if (ins_.evicted != nullptr) ins_.evicted->inc(evicted);
    note_live_sessions();
  }
  return evicted;
}

void LocalizationServer::shutdown() {
  bool first;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    first = !stopping_;
    stopping_ = true;
  }
  // Outside the once-only part: a wave triggered after an earlier
  // shutdown() still calls back into this server, which the destructor
  // must outlive. The workers are still up, so fills quiesce as usual.
  await_waves();
  if (first) pool_.shutdown();
}

}  // namespace uniloc::svc
