// Process-crash injection for the localization service.
//
// The injector models a server that checkpoints after every round of
// traffic and, at rounds scripted via FaultPlan::script_crash, dies and
// restarts from its checkpoints: all in-RAM session state is lost
// (LocalizationServer::crash) and rebuilt from the retained waves
// (LocalizationServer::restore). Every round appends one wave
// (svc/delta.h) to an in-RAM chain: a keyframe whenever the chain is
// empty or `keyframe_interval` waves have accumulated (a keyframe
// supersedes and drops everything before it, mirroring
// prune_wave_files), a delta of the dirty sessions otherwise. Because a
// wave captures the complete per-session state -- particle clouds, RNG
// engines, calibrators, the duty-cycle flag and the session bookkeeping
// -- a crashed-and-restored run must serve the exact epoch stream of an
// uninterrupted one: with a keyframe every round (interval 1, proptest
// invariant I5, tests/test_checkpoint.cc) and with deltas that carry
// only the sessions that advanced (proptest I9, which thereby pins dirty
// tracking, membership pruning and the overlay). Any wave the restore
// rejects is OUR OWN torn write and counts as a restore failure. The
// server must write lossless waves (ServerConfig::snapshot_quantize
// off): bit identity depends on it.
//
// Wire into the load generator:
//
//   fault::CrashInjector injector(&server, &plan);
//   load_cfg.on_round = [&](std::size_t round) { injector.on_round(round); };
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "svc/server.h"

namespace uniloc::fault {

class CrashInjector {
 public:
  /// Both pointers must outlive the injector.
  CrashInjector(svc::LocalizationServer* server, const FaultPlan* plan,
                std::size_t keyframe_interval = 1)
      : server_(server),
        plan_(plan),
        keyframe_interval_(keyframe_interval == 0 ? 1 : keyframe_interval) {}

  /// Attach a flight recorder (obs/flight_recorder.h) for post-mortems:
  /// every scripted crash records a kCrash event (session 0 = the server
  /// itself, epoch = round) and, when `dump_dir` is non-empty, dumps the
  /// recorder to `<dump_dir>/flight_crash_round<R>.jsonl` BEFORE the
  /// in-RAM state dies -- the black box survives the airplane. A failed
  /// restore additionally dumps flight_restore_mismatch_round<R>.jsonl.
  /// The dump is deterministic (no wall-clock fields), so same-seed
  /// reruns produce byte-identical files.
  void attach_flight(obs::FlightRecorder* flight, std::string dump_dir = "") {
    flight_ = flight;
    dump_dir_ = std::move(dump_dir);
  }

  /// Append this round's wave; then, if `round` is scripted to crash,
  /// kill and restore the server. Call from LoadGenConfig::on_round (all
  /// sessions are idle there, so the wave is a clean between-rounds cut).
  void on_round(std::size_t round);

  std::size_t crashes() const { return crashes_; }
  /// Restores that failed or rejected one of our own waves (must stay 0).
  std::size_t restore_failures() const { return restore_failures_; }
  /// Flight-dump files written so far, in write order.
  const std::vector<std::string>& flight_dumps() const { return dumps_; }

 private:
  void dump_flight(const std::string& what, std::size_t round);

  svc::LocalizationServer* server_;
  const FaultPlan* plan_;
  std::size_t keyframe_interval_;
  obs::FlightRecorder* flight_{nullptr};
  std::string dump_dir_;
  std::vector<std::string> dumps_;
  std::vector<std::vector<std::uint8_t>> chain_;
  std::size_t crashes_{0};
  std::size_t restore_failures_{0};
};

}  // namespace uniloc::fault
