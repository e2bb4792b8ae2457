// Per-session flight recorder.
//
// A fixed-size ring buffer of the last N epoch events per session --
// submits, retries, timeouts, backpressure, fallback entry/exit,
// re-hellos, and the server's per-epoch scheme choice. When something
// goes wrong (a crash, a restore mismatch, an SLO breach) the recorder
// is dumped as JSONL next to the checkpoint files, so a post-mortem can
// reconstruct exactly what the failing session's last N epochs did
// without re-running anything.
//
// Determinism contract: FlightEvent carries NO wall-clock timestamps --
// every field is derived from the deterministic simulation (epoch
// indices, attempt counts, scheme indices, virtual-time latencies), so a
// same-seed rerun at workers == 0 produces a byte-identical dump. That
// property is what makes flight dumps diffable across reruns and is
// locked by the chaos tests.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace uniloc::obs {

enum class FlightKind : std::uint8_t {
  kHello = 1,
  kEpochSubmit = 2,     ///< Client sent an epoch frame. a = attempt 0.
  kEpochAccepted = 3,   ///< Reply landed. a = attempts, x = error (m).
  kRetry = 4,           ///< Timed out / dropped; resending. a = attempt.
  kTimeout = 5,         ///< Attempts exhausted. a = attempts used.
  kBackpressure = 6,    ///< Server shed the request (inbox full).
  kFallbackEnter = 7,   ///< Client entered degraded local mode.
  kFallbackExit = 8,    ///< Probe succeeded; back to server mode.
  kLocalEpoch = 9,      ///< Served by the local fallback. x = error (m).
  kRehello = 10,        ///< Client re-registered after eviction.
  kServerEpoch = 11,    ///< Server decision. a = scheme, b = indoor, x = tau.
  kRestore = 12,        ///< Session state restored from a checkpoint.
  kCrash = 13,          ///< CrashInjector killed the server.
  kSloBreach = 14,      ///< SloMonitor burn rate crossed 1.0.
  kError = 15,          ///< Malformed frame / server-side error.
};

const char* flight_kind_name(FlightKind k);

/// One recorded event. `a`, `b`, `x` are kind-specific (documented per
/// enumerator above); unused fields stay zero so serialization is
/// deterministic.
struct FlightEvent {
  std::uint64_t session_id{0};
  std::uint64_t epoch{0};  ///< Client epoch index / server epochs served.
  FlightKind kind{FlightKind::kError};
  std::int64_t a{0};
  std::int64_t b{0};
  double x{0.0};
};

/// Serialize one event as a single JSON object (no trailing newline).
std::string to_json_line(const FlightEvent& ev);

/// Thread-safe ring-per-session store. Recording is a mutex + ring write
/// (no allocation after a session's first `capacity` events); dumping
/// walks sessions in id order, events oldest to newest.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity_per_session = 64);

  void record(const FlightEvent& ev);

  std::size_t capacity_per_session() const { return capacity_; }
  std::uint64_t total_recorded() const;
  std::vector<std::uint64_t> session_ids() const;  ///< Sorted.
  /// Oldest-to-newest retained events for one session.
  std::vector<FlightEvent> session_events(std::uint64_t session_id) const;

  /// Full JSONL dump: per session (ascending id) one header line
  /// {"session":..,"events_seen":..,"events_kept":..} followed by its
  /// retained events, oldest first. Deterministic: identical recording
  /// sequences produce identical bytes.
  std::string dump_jsonl() const;

  /// Write dump_jsonl() to `path`. Returns false on I/O failure.
  bool dump_to_file(const std::string& path) const;

  void clear();

 private:
  struct Ring {
    std::vector<FlightEvent> buf;  ///< Capacity-bounded storage.
    std::size_t next{0};           ///< Overwrite cursor once full.
    std::uint64_t seen{0};         ///< Lifetime events recorded.
  };

  std::vector<FlightEvent> ordered_events(const Ring& ring) const;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::map<std::uint64_t, Ring> rings_;
  std::uint64_t total_{0};
};

}  // namespace uniloc::obs
