#include "svc/link.h"

#include <cmath>
#include <utility>

#include "svc/server.h"

namespace uniloc::svc {

std::future<LinkReply> DirectLink::send(std::vector<std::uint8_t> request) {
  // Deferred transform: the server future is already in flight on the
  // pool; the wrapper only repackages it when the client collects.
  return std::async(
      std::launch::deferred,
      [f = server_->submit(std::move(request))]() mutable {
        LinkReply reply;
        reply.status = LinkReply::Status::kOk;
        reply.bytes = f.get();
        return reply;
      });
}

std::uint64_t RetryPolicy::backoff_us(std::size_t retry_index,
                                      double u) const {
  const double scale =
      std::pow(backoff_multiplier, static_cast<double>(retry_index));
  const double jitter = 1.0 + jitter_frac * u;
  return static_cast<std::uint64_t>(
      static_cast<double>(backoff_base_us) * scale * jitter);
}

}  // namespace uniloc::svc
