#include "probe.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

EpochProbe& thread_probe() {
  thread_local EpochProbe probe;
  return probe;
}

void ProbeScheme::update_into(const uniloc::sim::SensorFrame& frame,
                              uniloc::schemes::SchemeOutput& out) {
  const std::int64_t t0 = now_ns();
  inner_->update_into(frame, out);
  const std::int64_t t1 = now_ns();
  EpochProbe& p = thread_probe();
  // Uniloc::update_fast localizes the schemes in registration order, so
  // scheme 0 opens the epoch's record.
  if (index_ == 0) {
    p = EpochProbe{};
    p.first_entry_ns = t0;
  }
  p.scheme_ns[index_] = t1 - t0;
  p.last_exit_ns = t1;
}

void Completions::push(const Completion& c) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(c);
  }
  cv_.notify_one();
}

void Completions::take(std::vector<Completion>& out, bool wait,
                       std::chrono::milliseconds timeout) {
  out.clear();
  std::unique_lock<std::mutex> lock(mu_);
  if (wait) {
    cv_.wait_for(lock, timeout, [this] { return !queue_.empty(); });
  }
  out.swap(queue_);
}

double rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace perfbench
