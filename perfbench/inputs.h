// Benchmark inputs: the venue, recorded phone tracks with their reference
// replies, and the session factories.
//
// A track is one phone walking one campus path. Its sim::Walker frames
// are reduced by offload::PhoneAgent and encoded with svc::encode_epoch;
// the GPS duty bit fed back into the walker comes from an inline
// (workers = 0) server replay that also keeps the reference reply of
// every epoch. A served session replays a track byte for byte, so each of
// its replies must equal the reference.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/deployment.h"
#include "core/trainer.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace perfbench {

/// What every session factory builds on: the campus deployment and the
/// standard error models.
struct Venue {
  uniloc::core::Deployment deployment;
  uniloc::core::TrainedModels models;
};

/// make_deployment(campus) + train_standard_models: the program's own
/// start-up work, timed as part of setup_s.
Venue make_venue();

struct TrackSpec {
  std::size_t path{0};
  std::uint64_t walk_seed{0};
  std::uint64_t uniloc_seed{0};
  std::size_t max_epochs{0};  ///< 0 = walk the whole path.
};

struct Track {
  TrackSpec spec;
  uniloc::svc::HelloPayload hello;
  std::vector<std::vector<std::uint8_t>> requests;  ///< kEpoch payloads.
  std::vector<std::vector<std::uint8_t>> replies;   ///< Reference payloads.
  std::vector<double> fix_error_m;  ///< Reference fix vs ground truth.
  std::vector<bool> gps_on;         ///< Reference duty decision.

  std::size_t size() const { return requests.size(); }
};

/// Maps a session id to the seed of its ensemble.
using SeedOf = std::function<std::uint64_t(std::uint64_t session_id)>;

/// The program's own factory: core::make_uniloc.
uniloc::svc::UnilocFactory plain_factory(const Venue& venue, SeedOf seed_of);

/// The same ensemble with every scheme wrapped in a ProbeScheme. Each
/// call's duration lands in `make_us` (factory calls run on the
/// submitting thread, which owns the vector).
uniloc::svc::UnilocFactory probed_factory(const Venue& venue, SeedOf seed_of,
                                          std::vector<double>* make_us);

/// Walk every spec and record it through inline servers built with
/// plain_factory (session i + 1 replays specs[i]); empty when the
/// reference itself fails. Tracks are recorded on up to four threads.
std::vector<Track> record_tracks(const Venue& venue,
                                 const std::vector<TrackSpec>& specs);

/// Replay every recorded track through inline servers built with
/// `factory` (session i + 1 replays tracks[i]), on up to four threads;
/// true when every reply equals its reference. `factory` must be safe to
/// call from several threads.
bool replays_match(const std::vector<Track>& tracks,
                   const uniloc::svc::UnilocFactory& factory);

uniloc::svc::Frame make_frame(uniloc::svc::FrameType type,
                              std::uint64_t session_id,
                              std::vector<std::uint8_t> payload = {});

/// The exact reply frame the reference predicts for `session_id`.
bool is_reference_reply(const std::vector<std::uint8_t>& reply,
                        std::uint64_t session_id,
                        const std::vector<std::uint8_t>& reference_payload);

/// The kError code of a reply frame, or nullopt when it is not an error.
std::optional<uniloc::svc::ErrorCode> reply_error(
    const std::vector<std::uint8_t>& reply);

}  // namespace perfbench
