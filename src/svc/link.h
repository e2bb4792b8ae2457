// Link: the transport abstraction between a phone and the server.
//
// svc::run_load used to call LocalizationServer::submit() directly, which
// hard-codes a perfect network: every frame arrives, every reply returns,
// nothing is delayed or corrupted. Link is the seam that makes the wire
// itself a component: DirectLink preserves the perfect transport, and
// fault::FaultyLink wraps any Link with a deterministic fault schedule
// (drop / duplicate / reorder / corrupt / delay / blackout).
//
// Delivery outcomes are explicit, and *delay is metadata, never a sleep*:
// a LinkReply carries the simulated round-trip in delay_us and the client
// compares it against its timeout -- so a chaos run with 50 ms links and
// 30 s blackouts still executes at full speed and stays bit-reproducible
// (see sim::VirtualClock).
#pragma once

#include <cstdint>
#include <future>
#include <vector>

namespace uniloc::svc {

class LocalizationServer;

struct LinkReply {
  enum class Status : std::uint8_t {
    kOk,       ///< `bytes` holds one encoded reply frame.
    kDropped,  ///< Request or reply lost in transit; the caller times out.
    kDown,     ///< Server unreachable (blackout); fails fast.
  };

  Status status{Status::kOk};
  std::vector<std::uint8_t> bytes;
  /// Simulated round-trip latency. A reply with delay_us > the client's
  /// timeout is treated by the client as lost (it has already retried).
  std::uint64_t delay_us{0};
};

class Link {
 public:
  virtual ~Link() = default;

  /// Transmit one encoded frame. The future resolves to the delivery
  /// outcome; with a threaded server, epochs from distinct sessions
  /// overlap exactly as through submit().
  virtual std::future<LinkReply> send(std::vector<std::uint8_t> request) = 0;
};

/// The perfect transport: every frame reaches the server, every reply
/// returns with zero simulated delay.
class DirectLink : public Link {
 public:
  explicit DirectLink(LocalizationServer* server) : server_(server) {}

  std::future<LinkReply> send(std::vector<std::uint8_t> request) override;

 private:
  LocalizationServer* server_;
};

/// Client-side degradation policy: per-request timeout, bounded retry
/// with exponential backoff + deterministic jitter. All durations are
/// virtual (compared against LinkReply::delay_us, charged to a
/// VirtualClock) -- nothing sleeps.
struct RetryPolicy {
  std::uint64_t timeout_us{200'000};
  /// Extra attempts after the first (attempts = 1 + max_retries).
  std::size_t max_retries{2};
  std::uint64_t backoff_base_us{50'000};
  double backoff_multiplier{2.0};
  /// Backoff is scaled by (1 + jitter_frac * u), u uniform in [0, 1) from
  /// the client's own RNG stream -- deterministic per (seed, session).
  double jitter_frac{0.1};
  /// Virtual cost of discovering the server unreachable (connection
  /// refused is fast; a lost datagram costs the full timeout).
  std::uint64_t unreachable_latency_us{1'000};

  /// Backoff before retry `retry_index` (0-based), jittered by u.
  std::uint64_t backoff_us(std::size_t retry_index, double u) const;
};

}  // namespace uniloc::svc
