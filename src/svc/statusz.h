// Live server introspection: one health dump, two encodings.
//
// ServerStatus is a point-in-time snapshot of everything an operator
// needs to judge a LocalizationServer: the
// session population with per-session age/queue depth/progress, thread
// pool occupancy, and whether intake is stopping. status_json() renders
// it with the full metrics registry + SLO state as one JSON document
// (the statusz schema, DESIGN.md §13); status_prometheus() renders the
// same facts as Prometheus text exposition -- registry instruments via
// obs::prometheus_text plus uniloc_server_* / uniloc_session_* gauges.
// Both are served by the kStatus admin frame and by
// `uniloc_cli serve-sim --statusz`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uniloc::obs {
class MetricsRegistry;
class SloMonitor;
}  // namespace uniloc::obs

namespace uniloc::svc {

struct SessionStatus {
  std::uint64_t id{0};
  std::uint64_t age_us{0};  ///< now - last_active (0 when clockless).
  std::uint64_t epochs_served{0};
  std::uint64_t queue_depth{0};  ///< Strand backlog incl. running task.
};

struct ServerStatus {
  std::uint64_t now_us{0};
  bool stopping{false};
  std::uint64_t live_sessions{0};
  int workers{0};
  std::uint64_t pool_queue_depth{0};
  std::uint64_t pool_active_workers{0};
  std::uint64_t pool_tasks_run{0};
  std::uint64_t pool_task_exceptions{0};
  std::vector<SessionStatus> sessions;  ///< Ascending id.
};

/// {"server":{...},"sessions":[...],"slo":{...}|null,"metrics":{...}}.
/// `registry` and `slo` may be null (rendered as {} / null).
std::string status_json(const ServerStatus& st,
                        const obs::MetricsRegistry* registry,
                        const obs::SloMonitor* slo);

/// Prometheus text: registry instruments (uniloc_ prefix) followed by
/// server/session gauges (uniloc_server_*, uniloc_session_*{session=..}).
std::string status_prometheus(const ServerStatus& st,
                              const obs::MetricsRegistry* registry,
                              const obs::SloMonitor* slo);

}  // namespace uniloc::svc
