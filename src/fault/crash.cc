#include "fault/crash.h"

#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "svc/delta.h"

namespace uniloc::fault {

void CrashInjector::on_round(std::size_t round) {
  last_checkpoint_ = server_->snapshot();
  ++checkpoints_;
  if (!plan_->crash_at(round)) return;
  ++crashes_;
  if (flight_ != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = 0;  // the server itself, not any one session
    ev.epoch = round;
    ev.kind = obs::FlightKind::kCrash;
    ev.a = static_cast<std::int64_t>(crashes_);
    flight_->record(ev);
    if (!dump_dir_.empty()) {
      // Dump before crash(): the black box must survive the wreck.
      const std::string path = dump_dir_ + "/flight_crash_round" +
                               std::to_string(round) + ".jsonl";
      if (flight_->dump_to_file(path)) dumps_.push_back(path);
    }
  }
  server_->crash();
  if (!server_->restore(last_checkpoint_)) {
    ++restore_failures_;
    if (flight_ != nullptr && !dump_dir_.empty()) {
      const std::string path = dump_dir_ + "/flight_restore_mismatch_round" +
                               std::to_string(round) + ".jsonl";
      if (flight_->dump_to_file(path)) dumps_.push_back(path);
    }
  }
}

void ChainCrashInjector::on_round(std::size_t round) {
  const bool keyframe =
      chain_.empty() || since_keyframe_ >= keyframe_interval_;
  if (keyframe) {
    // A keyframe re-anchors the chain: everything older is superseded
    // (the on-disk analogue prunes the files).
    chain_.clear();
    since_keyframe_ = 0;
    ++keyframes_;
  }
  chain_.push_back(server_->snapshot_wave(keyframe));
  ++since_keyframe_;
  ++waves_;
  if (!plan_->crash_at(round)) return;
  ++crashes_;
  server_->crash();
  const svc::ChainCollapse collapsed = svc::collapse_chain(chain_);
  // Our own chain must collapse cleanly: a rejected wave here is a torn
  // write WE produced, which the differential pass must surface.
  if (!collapsed.ok || collapsed.waves_rejected != 0 ||
      !server_->restore(collapsed.snapshot)) {
    ++restore_failures_;
    return;
  }
  deltas_applied_ += collapsed.deltas_applied;
}

}  // namespace uniloc::fault
