#include "core/uniloc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/confidence.h"
#include "core/epoch_scratch.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "offload/bytes.h"

namespace uniloc::core {

Uniloc::Uniloc(UnilocConfig cfg) : cfg_(cfg) {}

std::size_t Uniloc::add_scheme(schemes::SchemePtr scheme, ErrorModel model) {
  std::string span_name = "scheme." + scheme->name();
  entries_.push_back(
      {std::move(scheme), std::move(model), nullptr, std::move(span_name)});
  instrument_entry(entries_.back());
  return entries_.size() - 1;
}

void Uniloc::instrument_entry(Entry& e) {
  e.localize_us =
      registry_ != nullptr
          ? &registry_->histogram("scheme." + e.scheme->name() +
                                  ".localize_us")
          : nullptr;
  e.scheme->attach_metrics(registry_);
}

void Uniloc::attach_metrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    update_us_ = nullptr;
    fuse_us_ = nullptr;
    epochs_ = nullptr;
  } else {
    update_us_ = &registry->histogram("uniloc.update_us");
    fuse_us_ = &registry->histogram("uniloc.fuse_us");
    epochs_ = &registry->counter("uniloc.epochs");
  }
  for (Entry& e : entries_) instrument_entry(e);
}

std::vector<std::string> Uniloc::scheme_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.scheme->name());
  return names;
}

void Uniloc::reset(const schemes::StartCondition& start) {
  for (Entry& e : entries_) e.scheme->reset(start);
  predictor_.reset();
  predictor_.observe(start.pos);
  gps_enable_ = true;
}

FeatureContext Uniloc::make_context(bool indoor) const {
  FeatureContext ctx;
  ctx.indoor = indoor;
  ctx.place = cfg_.place;
  ctx.wifi_db = cfg_.wifi_db;
  ctx.cell_db = cfg_.cell_db;
  const auto pred = predictor_.predict();
  ctx.predicted_location = pred.value_or(geo::Vec2{});
  return ctx;
}

EpochDecision Uniloc::update(const sim::SensorFrame& frame) {
  EpochScratch scratch;
  return update_fast(frame, scratch);
}

const EpochDecision& Uniloc::update_fast(const sim::SensorFrame& frame,
                                         EpochScratch& scratch) {
  obs::ScopedTimer update_timer(update_us_);
  if (epochs_ != nullptr) epochs_->inc();
  EpochDecision& d = scratch.decision;
  const std::size_t n = entries_.size();
  d.outputs.resize(n);
  d.predicted_error.assign(n, stats::Gaussian{0.0, 1.0});
  d.confidence.assign(n, 0.0);
  d.weight.assign(n, 0.0);

  // 0. Open a new shared epoch: one tag bump invalidates every memoized
  //    candidate evaluation at once, and the schemes get the context
  //    installed before they localize (a no-op for schemes that ignore
  //    it).
  ++scratch.scheme_ctx.tag;
  scratch.feature_scratch.epoch_ctx = &scratch.scheme_ctx;
  for (Entry& e : entries_) e.scheme->set_epoch_context(&scratch.scheme_ctx);

  // 1. Run every scheme on the frame (conceptually in parallel; the paper
  //    offloads this to a server), localizing into the persistent output
  //    slots. An unavailable slot may keep a stale posterior/observables
  //    payload from an earlier epoch; every consumer gates on `available`
  //    first (DESIGN.md section 11), and keeping the map nodes alive is
  //    what makes availability flaps (GPS duty cycling!) allocation-free.
  //    User-integrated schemes are untrusted: an output containing
  //    non-finite values is treated as unavailable rather than poisoning
  //    the ensemble.
  for (std::size_t i = 0; i < n; ++i) {
    {
      obs::ScopedTimer localize_timer(entries_[i].localize_us);
      obs::ScopedSpan localize_span(tracer_, entries_[i].span_name.c_str(),
                                    "core");
      entries_[i].scheme->update_into(frame, d.outputs[i]);
    }
    schemes::SchemeOutput& out = d.outputs[i];
    if (out.available) {
      bool finite = std::isfinite(out.estimate.x) &&
                    std::isfinite(out.estimate.y);
      for (const schemes::WeightedPoint& wp : out.posterior.support) {
        finite = finite && std::isfinite(wp.pos.x) &&
                 std::isfinite(wp.pos.y) && std::isfinite(wp.weight) &&
                 wp.weight >= 0.0;
      }
      if (!finite) {
        out.available = false;
        out.estimate = geo::Vec2{};
        out.posterior.support.clear();
        out.observables.clear();
      }
    }
  }

  // 2. Environment classification and feature context.
  d.indoor = io_detector_.is_indoor(frame);
  const FeatureContext ctx = make_context(d.indoor);

  // 3. Online error prediction per available scheme.
  scratch.available_predictions.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!d.outputs[i].available) continue;
    extract_features_into(entries_[i].scheme->family(), frame, d.outputs[i],
                          ctx, scratch.feature_scratch, scratch.features);
    d.predicted_error[i] = entries_[i].model.predict(scratch.features,
                                                     d.indoor);
    scratch.available_predictions.push_back(d.predicted_error[i]);
  }

  // 4. Adaptive threshold and confidences (Eq. 2). Steps 4-6 are the
  //    fusion stage (tau, confidence, selection, BMA mixing) timed into
  //    uniloc.fuse_us.
  const auto fuse_start = fuse_us_ != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  obs::ScopedSpan fuse_span(tracer_, "core.fuse", "core");
  d.tau = cfg_.fixed_tau_m > 0.0 ? cfg_.fixed_tau_m
                                 : adaptive_tau(scratch.available_predictions);
  for (std::size_t i = 0; i < n; ++i) {
    if (!d.outputs[i].available) continue;  // confidence stays 0 (excluded)
    d.confidence[i] = confidence(d.predicted_error[i], d.tau);
  }

  // 5. UniLoc1: the highest-confidence scheme.
  d.selected = -1;
  double best_c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d.outputs[i].available && d.confidence[i] > best_c) {
      best_c = d.confidence[i];
      d.selected = static_cast<int>(i);
    }
  }

  // 6. UniLoc2: locally-weighted BMA. The fused location (Eq. 4, per
  //    axis) is the mixture expectation: sum_n w_n * E[l | M_n, s_t].
  //    Confidences are sharpened before normalization (see UnilocConfig).
  scratch.sharpened.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.sharpened[i] =
        std::pow(d.confidence[i], cfg_.confidence_sharpness);
  }
  bma_weights_into(scratch.sharpened, d.weight);
  geo::Vec2 fused{};
  double mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d.weight[i] <= 0.0) continue;
    const geo::Vec2 m = d.outputs[i].posterior.empty()
                            ? d.outputs[i].estimate
                            : d.outputs[i].posterior.mean();
    fused += m * d.weight[i];
    mass += d.weight[i];
  }

  const geo::Vec2 fallback =
      predictor_.predict().value_or(geo::Vec2{});
  d.uniloc2 = mass > 0.0 ? fused : fallback;
  d.uniloc1 = d.selected >= 0
                  ? d.outputs[static_cast<std::size_t>(d.selected)].estimate
                  : fallback;
  if (fuse_us_ != nullptr) {
    fuse_us_->observe(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - fuse_start)
                          .count());
  }
  fuse_span.finish();

  // 7. Advance the location predictor with the fused result.
  predictor_.observe(d.uniloc2);

  // 8. GPS duty cycling for the next epoch: off indoors; outdoors only
  //    when the constant GPS model beats every other scheme's prediction.
  d.gps_enable_next = true;
  if (cfg_.gps_duty_cycle) {
    if (d.indoor) {
      d.gps_enable_next = false;
    } else {
      double gps_mu = std::numeric_limits<double>::infinity();
      double best_other = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        if (entries_[i].scheme->family() == schemes::SchemeFamily::kGps) {
          // The GPS model needs no sensor input, so its error can be
          // predicted with the radio off.
          gps_mu = entries_[i].model.predict({}, /*indoor=*/false).mean;
        } else if (d.outputs[i].available) {
          best_other = std::min(best_other, d.predicted_error[i].mean);
        }
      }
      d.gps_enable_next = gps_mu <= best_other;
    }
  }
  gps_enable_ = d.gps_enable_next;

  // 9. Detach the context: the scratch may be freed (a worker thread's
  //    arena dies with the thread) while this Uniloc lives on, and a
  //    later direct update_into must not reach into it.
  for (Entry& e : entries_) e.scheme->set_epoch_context(nullptr);
  return d;
}

std::uint64_t Uniloc::scheme_cache_hits() const {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.scheme->cache_hits();
  return total;
}

std::uint64_t Uniloc::scheme_cache_misses() const {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.scheme->cache_misses();
  return total;
}

void Uniloc::snapshot_into(offload::ByteWriter& w, bool quantize) const {
  const schemes::SnapshotContext ctx{
      quantize, cfg_.place != nullptr ? cfg_.place->bounds() : geo::BBox{}};
  w.put_bool(gps_enable_);
  predictor_.snapshot_into(w);
  w.put_u32(static_cast<std::uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    w.put_string(e.scheme->name());
    // Length-prefix each scheme payload so a restorer can verify the
    // scheme consumed exactly what it wrote.
    const std::size_t len_pos = w.size();
    w.put_u32(0);
    const std::size_t start = w.size();
    e.scheme->snapshot_into(w, ctx);
    w.patch_u32(len_pos, static_cast<std::uint32_t>(w.size() - start));
  }
}

bool Uniloc::restore_from(offload::ByteReader& r, bool quantize) {
  schemes::SnapshotContext ctx{
      quantize, cfg_.place != nullptr ? cfg_.place->bounds() : geo::BBox{}};
  bool gps_enable;
  if (!r.get_bool(gps_enable)) return false;
  if (!predictor_.restore_from(r)) return false;
  std::uint32_t count;
  if (!r.get_u32(count) || count != entries_.size()) return false;
  for (Entry& e : entries_) {
    std::string name;
    if (!r.get_string(name, 64) || name != e.scheme->name()) return false;
    std::uint32_t len;
    if (!r.get_u32(len) || len > r.remaining()) return false;
    const std::size_t before = r.pos();
    if (!e.scheme->restore_from(r, ctx)) return false;
    if (r.pos() - before != len) return false;
  }
  gps_enable_ = gps_enable;
  return true;
}

}  // namespace uniloc::core
