#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>

#include "obs/json.h"

namespace uniloc::obs {

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kHello: return "hello";
    case FlightKind::kEpochSubmit: return "epoch_submit";
    case FlightKind::kEpochAccepted: return "epoch_accepted";
    case FlightKind::kRetry: return "retry";
    case FlightKind::kTimeout: return "timeout";
    case FlightKind::kBackpressure: return "backpressure";
    case FlightKind::kFallbackEnter: return "fallback_enter";
    case FlightKind::kFallbackExit: return "fallback_exit";
    case FlightKind::kLocalEpoch: return "local_epoch";
    case FlightKind::kRehello: return "rehello";
    case FlightKind::kServerEpoch: return "server_epoch";
    case FlightKind::kRestore: return "restore";
    case FlightKind::kCrash: return "crash";
    case FlightKind::kSloBreach: return "slo_breach";
    case FlightKind::kError: return "error";
  }
  return "unknown";
}

std::string to_json_line(const FlightEvent& ev) {
  JsonWriter w;
  w.begin_object();
  w.kv("session", ev.session_id);
  w.kv("epoch", ev.epoch);
  w.kv("kind", flight_kind_name(ev.kind));
  w.kv("a", ev.a);
  w.kv("b", ev.b);
  w.kv("x", ev.x);
  w.end_object();
  return w.str();
}

FlightRecorder::FlightRecorder(std::size_t capacity_per_session)
    : capacity_(std::max<std::size_t>(capacity_per_session, 1)) {}

void FlightRecorder::record(const FlightEvent& ev) {
  std::lock_guard<std::mutex> lock(mu_);
  Ring& ring = rings_[ev.session_id];
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(ev);
  } else {
    ring.buf[ring.next] = ev;
    ring.next = (ring.next + 1) % capacity_;
  }
  ++ring.seen;
  ++total_;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::vector<std::uint64_t> FlightRecorder::session_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(rings_.size());
  for (const auto& [id, ring] : rings_) ids.push_back(id);
  return ids;  // std::map iterates in ascending key order
}

std::vector<FlightEvent> FlightRecorder::ordered_events(
    const Ring& ring) const {
  std::vector<FlightEvent> out;
  out.reserve(ring.buf.size());
  if (ring.buf.size() < capacity_) {
    out = ring.buf;  // never wrapped: already oldest-first
  } else {
    out.insert(out.end(), ring.buf.begin() + static_cast<std::ptrdiff_t>(
                                                 ring.next),
               ring.buf.end());
    out.insert(out.end(), ring.buf.begin(),
               ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next));
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::session_events(
    std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = rings_.find(session_id);
  if (it == rings_.end()) return {};
  return ordered_events(it->second);
}

std::string FlightRecorder::dump_jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [id, ring] : rings_) {
    JsonWriter header;
    header.begin_object();
    header.kv("session", id);
    header.kv("events_seen", ring.seen);
    header.kv("events_kept",
              static_cast<std::uint64_t>(ring.buf.size()));
    header.end_object();
    out += header.str();
    out += '\n';
    for (const FlightEvent& ev : ordered_events(ring)) {
      out += to_json_line(ev);
      out += '\n';
    }
  }
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f.is_open()) return false;
  f << dump_jsonl();
  return f.good();
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  total_ = 0;
}

}  // namespace uniloc::obs
