#include "fault/crash.h"

#include <string>
#include <utility>

#include "obs/flight_recorder.h"

namespace uniloc::fault {

void CrashInjector::dump_flight(const std::string& what, std::size_t round) {
  if (flight_ == nullptr || dump_dir_.empty()) return;
  const std::string path = dump_dir_ + "/flight_" + what + "_round" +
                           std::to_string(round) + ".jsonl";
  if (flight_->dump_to_file(path)) dumps_.push_back(path);
}

void CrashInjector::on_round(std::size_t round) {
  const bool keyframe =
      chain_.empty() || chain_.size() >= keyframe_interval_;
  // A keyframe re-anchors the chain: everything older is superseded
  // (the on-disk analogue prunes the files).
  if (keyframe) chain_.clear();
  chain_.push_back(server_->snapshot_wave(keyframe));
  if (!plan_->crash_at(round)) return;
  ++crashes_;
  if (flight_ != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = 0;  // the server itself, not any one session
    ev.epoch = round;
    ev.kind = obs::FlightKind::kCrash;
    ev.a = static_cast<std::int64_t>(crashes_);
    flight_->record(ev);
    // Dump before crash(): the black box must survive the wreck.
    dump_flight("crash", round);
  }
  server_->crash();
  const svc::LocalizationServer::ChainRestoreResult r =
      server_->restore(chain_);
  if (!r.ok || r.waves_rejected != 0) {
    ++restore_failures_;
    dump_flight("restore_mismatch", round);
  }
}

}  // namespace uniloc::fault
