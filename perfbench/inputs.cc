#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "core/runner.h"
#include "offload/session.h"
#include "probe.h"
#include "sim/builders.h"
#include "sim/walker.h"
#include "svc/epoch_codec.h"

namespace perfbench {

using namespace uniloc;

Venue make_venue() {
  Venue v{core::make_deployment(sim::campus(42),
                                core::DeploymentOptions{.seed = 42}),
          core::train_standard_models(/*seed=*/42, /*target_samples=*/300)};
  return v;
}

svc::UnilocFactory plain_factory(const Venue& venue, SeedOf seed_of) {
  return [&venue, seed_of = std::move(seed_of)](std::uint64_t sid) {
    return std::make_unique<core::Uniloc>(core::make_uniloc(
        venue.deployment, venue.models, {}, false, seed_of(sid)));
  };
}

svc::UnilocFactory probed_factory(const Venue& venue, SeedOf seed_of,
                                  std::vector<double>* make_us) {
  return [&venue, seed_of = std::move(seed_of), make_us](std::uint64_t sid) {
    const std::int64_t t0 = now_ns();
    // core::make_uniloc, with each scheme behind a ProbeScheme.
    const core::Deployment& d = venue.deployment;
    core::UnilocConfig cfg;
    cfg.place = d.place.get();
    cfg.wifi_db = d.wifi_db.get();
    cfg.cell_db = d.cell_db.get();
    auto u = std::make_unique<core::Uniloc>(cfg);
    std::size_t index = 0;
    for (schemes::SchemePtr& s :
         core::make_standard_schemes(d, false, seed_of(sid))) {
      const schemes::SchemeFamily family = s->family();
      u->add_scheme(std::make_unique<ProbeScheme>(std::move(s), index++),
                    venue.models.for_family(family));
    }
    if (make_us != nullptr) {
      make_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    return u;
  };
}

svc::Frame make_frame(svc::FrameType type, std::uint64_t session_id,
                      std::vector<std::uint8_t> payload) {
  svc::Frame f;
  f.type = type;
  f.session_id = session_id;
  f.payload = std::move(payload);
  return f;
}

bool is_reference_reply(const std::vector<std::uint8_t>& reply,
                        std::uint64_t session_id,
                        const std::vector<std::uint8_t>& reference_payload) {
  return reply == svc::encode_frame(make_frame(
                      svc::FrameType::kReply, session_id, reference_payload));
}

std::optional<svc::ErrorCode> reply_error(
    const std::vector<std::uint8_t>& reply) {
  const svc::DecodeResult d = svc::decode_frame(reply);
  if (!d.frame.has_value()) return svc::ErrorCode::kMalformed;
  if (d.frame->type != svc::FrameType::kError) return std::nullopt;
  return svc::error_code(*d.frame).value_or(svc::ErrorCode::kMalformed);
}

namespace {

std::vector<std::uint8_t> submit_sync(svc::LocalizationServer& server,
                                      const svc::Frame& frame) {
  return server.submit(svc::encode_frame(frame)).get();
}

/// Runs fn(i) for i in [0, n) on up to four threads (the machine's
/// budget), thread k taking i = k, k + 4, ...
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = std::min<std::size_t>(
      n, std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4));
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&fn, n, threads, k] {
      for (std::size_t i = k; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

std::vector<Track> record_tracks(const Venue& venue,
                                 const std::vector<TrackSpec>& specs) {
  const core::Deployment& d = venue.deployment;
  const svc::UnilocFactory factory =
      plain_factory(venue, [&specs](std::uint64_t sid) {
        return specs[sid - 1].uniloc_seed;
      });
  std::vector<Track> tracks(specs.size());
  std::atomic<bool> ok{true};
  parallel_for(specs.size(), [&](std::size_t i) {
    svc::LocalizationServer server(svc::ServerConfig{}, factory);
    const std::uint64_t sid = i + 1;
    Track& t = tracks[i];
    t.spec = specs[i];
    sim::WalkConfig wc;
    wc.seed = t.spec.walk_seed;
    sim::Walker walker(d.place.get(), d.radio.get(), t.spec.path, wc);
    offload::PhoneAgent phone;
    phone.reset(walker.start_heading());
    t.hello = {walker.start_position(), walker.start_heading()};
    submit_sync(server, make_frame(svc::FrameType::kHello, sid,
                                   svc::encode_hello(t.hello)));
    bool gps = true;
    while (!walker.done() &&
           (t.spec.max_epochs == 0 || t.size() < t.spec.max_epochs)) {
      const sim::SensorFrame frame = walker.step(gps);
      std::vector<std::uint8_t> payload =
          svc::encode_epoch(phone.reduce(frame), frame);
      const svc::DecodeResult reply = svc::decode_frame(submit_sync(
          server, make_frame(svc::FrameType::kEpoch, sid, payload)));
      const std::optional<svc::EpochReply> parsed =
          reply.frame.has_value() &&
                  reply.frame->type == svc::FrameType::kReply
              ? svc::parse_epoch_reply(reply.frame->payload)
              : std::nullopt;
      if (!parsed.has_value()) {  // the reference itself failed
        ok = false;
        return;
      }
      gps = parsed->gps_enable_next;
      t.requests.push_back(std::move(payload));
      t.replies.push_back(reply.frame->payload);
      t.fix_error_m.push_back(
          geo::distance(parsed->downlink.decoded(), frame.truth_pos));
      t.gps_on.push_back(gps);
    }
  });
  if (!ok) tracks.clear();
  return tracks;
}

bool replays_match(const std::vector<Track>& tracks,
                   const svc::UnilocFactory& factory) {
  std::atomic<bool> ok{true};
  parallel_for(tracks.size(), [&](std::size_t i) {
    svc::LocalizationServer server(svc::ServerConfig{}, factory);
    const std::uint64_t sid = i + 1;
    const Track& t = tracks[i];
    submit_sync(server, make_frame(svc::FrameType::kHello, sid,
                                   svc::encode_hello(t.hello)));
    for (std::size_t k = 0; k < t.size() && ok; ++k) {
      const std::vector<std::uint8_t> reply = submit_sync(
          server, make_frame(svc::FrameType::kEpoch, sid, t.requests[k]));
      if (!is_reference_reply(reply, sid, t.replies[k])) ok = false;
    }
  });
  return ok;
}

}  // namespace perfbench
