// Benchmark-side instrumentation: everything the traced run measures is
// timed here, around public calls, never inside the program.
//
//   ProbeScheme   forwarding LocalizationScheme that times update_into.
//                 The traced session factory registers one per scheme
//                 through Uniloc::add_scheme.
//   EpochProbe    per-thread record of the epoch running on that thread:
//                 an epoch runs start to finish on one worker (inline:
//                 the caller), so the wrappers and the on_epoch hook meet
//                 in a thread_local without any locking.
//   Completions   on_epoch -> generator hand-off (one mutex, one condvar).
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "schemes/scheme.h"

namespace perfbench {

inline constexpr std::size_t kSchemes = 5;
/// Canonical order of core::make_standard_schemes.
inline constexpr std::array<const char*, kSchemes> kSchemeNames = {
    "GPS", "WiFi", "Cellular", "Motion", "Fusion"};

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct EpochProbe {
  std::int64_t first_entry_ns{0};
  std::int64_t last_exit_ns{0};
  std::array<std::int64_t, kSchemes> scheme_ns{};
};

/// The probe of the epoch currently running on the calling thread.
EpochProbe& thread_probe();

class ProbeScheme final : public uniloc::schemes::LocalizationScheme {
 public:
  ProbeScheme(uniloc::schemes::SchemePtr inner, std::size_t index)
      : inner_(std::move(inner)), index_(index) {}

  std::string name() const override { return inner_->name(); }
  uniloc::schemes::SchemeFamily family() const override {
    return inner_->family();
  }
  void reset(const uniloc::schemes::StartCondition& start) override {
    inner_->reset(start);
  }
  uniloc::schemes::SchemeOutput update(
      const uniloc::sim::SensorFrame& frame) override {
    return inner_->update(frame);
  }
  void update_into(const uniloc::sim::SensorFrame& frame,
                   uniloc::schemes::SchemeOutput& out) override;
  void set_epoch_context(uniloc::schemes::EpochContext* ctx) override {
    inner_->set_epoch_context(ctx);
  }
  void attach_metrics(uniloc::obs::MetricsRegistry* registry) override {
    inner_->attach_metrics(registry);
  }
  void snapshot_into(uniloc::offload::ByteWriter& w) const override {
    inner_->snapshot_into(w);
  }
  bool restore_from(uniloc::offload::ByteReader& r) override {
    return inner_->restore_from(r);
  }
  void snapshot_into(
      uniloc::offload::ByteWriter& w,
      const uniloc::schemes::SnapshotContext& ctx) const override {
    inner_->snapshot_into(w, ctx);
  }
  bool restore_from(uniloc::offload::ByteReader& r,
                    const uniloc::schemes::SnapshotContext& ctx) override {
    return inner_->restore_from(r, ctx);
  }
  std::uint64_t cache_hits() const override { return inner_->cache_hits(); }
  std::uint64_t cache_misses() const override {
    return inner_->cache_misses();
  }

 private:
  uniloc::schemes::SchemePtr inner_;
  std::size_t index_;
};

/// One served epoch as the on_epoch hook saw it.
struct Completion {
  std::uint64_t session_id{0};
  std::int64_t done_ns{0};
  EpochProbe probe;  ///< Filled only when the session is traced.
  std::array<bool, kSchemes> available{};
};

class Completions {
 public:
  void push(const Completion& c);
  /// Moves everything queued into `out` (cleared first). Waits up to
  /// `timeout` for the first item when `wait` is set.
  void take(std::vector<Completion>& out, bool wait,
            std::chrono::milliseconds timeout);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> queue_;
};

/// VmRSS of this process in KiB (0 where /proc is absent).
double rss_kib();

/// User + system CPU seconds of the whole process.
double process_cpu_s();

}  // namespace perfbench
