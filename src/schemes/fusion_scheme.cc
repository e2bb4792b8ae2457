#include "schemes/fusion_scheme.h"

#include <cmath>

#include "schemes/epoch_context.h"
#include "stats/gaussian.h"
#include "stats/simd.h"
#include "stats/vecmath.h"

namespace uniloc::schemes {

FusionScheme::FusionScheme(const sim::Place* place,
                           const FingerprintDatabase* db, FusionOptions opts)
    : PdrScheme(place, opts.pdr), db_(db), opts_(opts) {}

void FusionScheme::extra_reweight(const sim::SensorFrame& frame,
                                  SchemeScratch& buf) {
  if (frame.wifi.empty() || db_->empty()) return;

  // The WiFi scheme has typically evaluated this scan against the same
  // database already this epoch; the shared memo turns our query into a
  // copy + partial sort.
  EpochContext* ctx = epoch_ctx();
  ScanMemo* memo = ctx != nullptr ? ctx->memo_for(db_) : nullptr;
  std::vector<Match>& candidates = buf.matches;
  if (memo != nullptr) {
    db_->k_nearest_memo(frame.wifi, opts_.rssi_top_k, ctx->tag, *memo,
                        candidates);
  } else {
    db_->k_nearest_into(frame.wifi, opts_.rssi_top_k, scan_scratch_,
                        candidates);
  }
  if (candidates.empty()) return;

  // RSSI likelihood of each candidate, relative to the best match.
  const double best = candidates[0].distance;
  std::vector<double>& rssi_w = buf.rssi_w;
  rssi_w.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    rssi_w[i] = stats::det_exp(-(candidates[i].distance - best) /
                               opts_.rssi_scale_db);
  }

#if !defined(UNILOC_NO_SIMD)
  if (stats::simd_enabled()) {
    // Lane-per-particle kernel: candidate-outer / particle-inner keeps
    // each particle's accumulation in candidate order -- the exact
    // per-particle operation sequence of the scalar lambda below, so the
    // committed weights are bit-identical (normal_pdf_sq is
    // det_exp-based and inline in both paths).
    filter::ParticleFilter& f = pf();
    const std::size_t n = f.size();
    buf.like.resize(n);
    double* like = buf.like.data();
    const double floor_like = opts_.floor_likelihood;
    UNILOC_PRAGMA_SIMD
    for (std::size_t p = 0; p < n; ++p) like[p] = floor_like;
    const double* xs = f.pos_xs();
    const double* ys = f.pos_ys();
    const double inv_sd2 =
        1.0 / (opts_.spatial_sd_m * opts_.spatial_sd_m);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const geo::Vec2 fp_pos = db_->fingerprints()[candidates[i].index].pos;
      const double fx = fp_pos.x;
      const double fy = fp_pos.y;
      const double w = rssi_w[i];
      UNILOC_PRAGMA_SIMD
      for (std::size_t p = 0; p < n; ++p) {
        const double dx = xs[p] - fx;
        const double dy = ys[p] - fy;
        like[p] += w * stats::normal_pdf_sq((dx * dx + dy * dy) * inv_sd2);
      }
    }
    f.reweight_array(like);
    return;
  }
#endif
  // Squared-distance form: (dx^2 + dy^2) * inv_sd2 feeds normal_pdf_sq
  // directly, skipping the per-lane sqrt and division. The SIMD kernel
  // above evaluates this exact expression, so the two stay bit-identical.
  const double inv_sd2 = 1.0 / (opts_.spatial_sd_m * opts_.spatial_sd_m);
  pf().reweight([&](const filter::Particle& p) {
    double like = opts_.floor_likelihood;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const geo::Vec2 fp_pos = db_->fingerprints()[candidates[i].index].pos;
      const double dx = p.pos.x - fp_pos.x;
      const double dy = p.pos.y - fp_pos.y;
      like += rssi_w[i] * stats::normal_pdf_sq((dx * dx + dy * dy) * inv_sd2);
    }
    return like;
  });
}

}  // namespace uniloc::schemes
