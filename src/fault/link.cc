#include "fault/link.h"

#include <future>
#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"

namespace uniloc::fault {

namespace {

std::future<svc::LinkReply> ready(svc::LinkReply reply) {
  std::promise<svc::LinkReply> promise;
  promise.set_value(std::move(reply));
  return promise.get_future();
}

}  // namespace

FaultyLink::FaultyLink(std::unique_ptr<svc::Link> inner,
                       const FaultPlan* plan, std::uint64_t stream,
                       obs::MetricsRegistry* registry,
                       obs::SpanTracer* tracer)
    : inner_(std::move(inner)),
      plan_(plan),
      stream_(stream),
      tracer_(tracer) {
  if (registry != nullptr) {
    m_drop_ = &registry->counter("fault.injected.drop");
    m_duplicate_ = &registry->counter("fault.injected.duplicate");
    m_reorder_ = &registry->counter("fault.injected.reorder");
    m_corrupt_ = &registry->counter("fault.injected.corrupt");
    m_down_ = &registry->counter("fault.injected.down");
    m_delay_us_ = &registry->counter("fault.injected.delay_us");
  }
}

std::future<svc::LinkReply> FaultyLink::send(
    std::vector<std::uint8_t> request) {
  const std::size_t index = send_index_++;
  ++counters_.sends;
  const FaultDecision d = plan_->decide(stream_, index);
  counters_.delay_us_total += d.delay_us;
  if (m_delay_us_ != nullptr && d.delay_us > 0) m_delay_us_->inc(d.delay_us);

  // One span per wire transmission, noted with the injected fault. The
  // inner send runs on this thread (only the reply wait is deferred), so
  // the server's spans chain under the caller's ambient context.
  obs::ScopedSpan span(tracer_, "link.send", "link", 0, 0, stream_);
  const char* note = "ok";

  switch (d.kind) {
    case FaultKind::kDown: {
      ++counters_.downs;
      if (m_down_ != nullptr) m_down_->inc();
      svc::LinkReply reply;
      reply.status = svc::LinkReply::Status::kDown;
      reply.delay_us = d.delay_us;
      span.finish("down");
      return ready(std::move(reply));
    }
    case FaultKind::kDrop: {
      // Lost before the server: no submit, the caller times out.
      ++counters_.drops;
      if (m_drop_ != nullptr) m_drop_->inc();
      svc::LinkReply reply;
      reply.status = svc::LinkReply::Status::kDropped;
      reply.delay_us = d.delay_us;
      span.finish("drop");
      return ready(std::move(reply));
    }
    case FaultKind::kCorrupt:
      ++counters_.corruptions;
      if (m_corrupt_ != nullptr) m_corrupt_->inc();
      // Flip a magic byte: the frame still travels, but the server's
      // hostile-input boundary rejects it (detected corruption).
      if (request.size() > 4) request[4] ^= 0xFF;
      note = "corrupt";
      break;
    case FaultKind::kDuplicate: {
      ++counters_.duplicates;
      if (m_duplicate_ != nullptr) m_duplicate_->inc();
      auto first = inner_->send(request);  // copy: original delivery
      auto second = inner_->send(std::move(request));
      span.finish("duplicate");
      return std::async(
          std::launch::deferred,
          [this, d, f1 = std::move(first),
           f2 = std::move(second)]() mutable {
            svc::LinkReply reply = f1.get();
            (void)f2.get();  // the duplicate's reply evaporates
            reply.delay_us += d.delay_us;
            if (reply.status == svc::LinkReply::Status::kOk) {
              prev_reply_ = reply.bytes;
              have_prev_ = true;
            }
            return reply;
          });
    }
    case FaultKind::kReorder: {
      ++counters_.reorders;
      if (m_reorder_ != nullptr) m_reorder_->inc();
      auto f = inner_->send(std::move(request));
      span.finish("reorder");
      return std::async(
          std::launch::deferred, [this, d, f = std::move(f)]() mutable {
            svc::LinkReply reply = f.get();
            reply.delay_us += d.delay_us;
            if (reply.status == svc::LinkReply::Status::kOk && have_prev_) {
              // Deliver the stale slot; this exchange's reply waits.
              std::swap(reply.bytes, prev_reply_);
            } else if (reply.status == svc::LinkReply::Status::kOk) {
              prev_reply_ = reply.bytes;  // nothing older to deliver yet
              have_prev_ = true;
            }
            return reply;
          });
    }
    case FaultKind::kNone:
    case FaultKind::kProcessCrash:  // scripted between rounds, never per send
      break;
  }

  auto f = inner_->send(std::move(request));
  span.finish(note);
  return std::async(std::launch::deferred, [this, d, f = std::move(f)]() mutable {
    svc::LinkReply reply = f.get();
    reply.delay_us += d.delay_us;
    if (reply.status == svc::LinkReply::Status::kOk) {
      prev_reply_ = reply.bytes;
      have_prev_ = true;
    }
    return reply;
  });
}

}  // namespace uniloc::fault
