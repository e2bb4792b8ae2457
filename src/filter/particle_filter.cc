#include "filter/particle_filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "stats/philox.h"
#include "stats/rng.h"
#include "stats/simd.h"
#include "stats/vecmath.h"

namespace uniloc::filter {

ParticleFilter::ParticleFilter(std::size_t num_particles, std::uint64_t seed)
    : px_(num_particles),
      py_(num_particles),
      heading_(num_particles),
      scale_(num_particles, 1.0),
      weight_(num_particles, 1.0) {
  assert(num_particles > 0);
  reseed(seed);
}

void ParticleFilter::reseed(std::uint64_t seed) {
  key_ = stats::splitmix64(seed);
  ctr_ = 0;
}

void ParticleFilter::init(geo::Vec2 pos, double heading, double pos_sd,
                          double heading_sd, double scale_sd) {
  // Two blocks per particle (the layout in the header). Box-Muller from
  // det_normal_pair, not std::normal_distribution, whose algorithm is
  // implementation-defined: the stream is the same on every standard
  // library.
  const std::size_t n = px_.size();
  const double w = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t a, b;
    double zx, zy, zh, zs;
    stats::philox_block(key_, ctr_ + 2 * i, a, b);
    stats::det_normal_pair(a, b, zx, zy);
    stats::philox_block(key_, ctr_ + 2 * i + 1, a, b);
    stats::det_normal_pair(a, b, zh, zs);
    px_[i] = pos.x + pos_sd * zx;
    py_[i] = pos.y + pos_sd * zy;
    heading_[i] = geo::wrap_angle(heading + heading_sd * zh);
    scale_[i] = std::max(0.5, 1.0 + scale_sd * zs);
    weight_[i] = w;
  }
  ctr_ += 2 * n;
}

void ParticleFilter::attach_metrics(obs::MetricsRegistry* registry,
                                    const std::string& prefix) {
  if (registry == nullptr) {
    predict_us_ = nullptr;
    resample_us_ = nullptr;
    return;
  }
  predict_us_ = &registry->histogram(prefix + ".predict_us");
  resample_us_ = &registry->histogram(prefix + ".resample_us");
}

void ParticleFilter::predict(double step_len, double dheading,
                             double step_len_sd, double heading_sd,
                             KernelScratch& scratch) {
  obs::ScopedTimer timer(predict_us_);
  const std::size_t n = px_.size();
  const std::uint64_t key = key_;
  const std::uint64_t ctr = ctr_;
  ctr_ += n;
#if !defined(UNILOC_NO_SIMD)
  if (stats::simd_enabled()) {
    // Every loop is a vector loop. Each lane computes its particle's
    // Philox block and turns it into two normals (det_normal_pair, a pure
    // elementwise function of the block) -- the scalar fallback below
    // computes the identical expressions in the identical order.
    scratch.turned.resize(n);
    scratch.stride.resize(n);
    constexpr double kPi = std::numbers::pi;
    constexpr double kTwoPi = 2.0 * std::numbers::pi;
    double* h = heading_.data();
    double* turned = scratch.turned.data();
    double* stride = scratch.stride.data();
    const double* sc = scale_.data();
    // Both noise draws, the turn and the step length per lane. IEEE
    // fmod(a, 2pi) returns a itself when |a| < 2pi, so there
    // geo::wrap_angle is exactly its two selects; lanes outside that
    // range (or NaN) are flagged and rewrapped by the call below.
    int unwrapped = 0;
    UNILOC_PRAGMA_SIMD_REDUCTION(|, unwrapped)
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t ra, rb;
      stats::philox_block(key, ctr + i, ra, rb);
      double z0, z1;
      stats::det_normal_pair(ra, rb, z0, z1);
      const double a = h[i] + dheading + heading_sd * z0;
      double w = a > kPi ? a - kTwoPi : a;
      w = w <= -kPi ? w + kTwoPi : w;
      h[i] = w;
      turned[i] = a;
      unwrapped |= !(std::fabs(a) < kTwoPi);
      stride[i] = std::max(0.0, step_len * sc[i] + step_len_sd * z1);
    }
    if (unwrapped != 0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!(std::fabs(turned[i]) < kTwoPi)) h[i] = geo::wrap_angle(turned[i]);
      }
    }
    double* x = px_.data();
    double* y = py_.data();
    UNILOC_PRAGMA_SIMD
    for (std::size_t i = 0; i < n; ++i) {
      double s, c;
      stats::det_sincos(h[i], s, c);
      x[i] += c * stride[i];
      y[i] += s * stride[i];
    }
    return;
  }
#endif
  (void)scratch;  // the scalar path stages nothing
  for (std::size_t i = 0; i < n; ++i) {
    // Same block and the same det_normal_pair expressions as the vector
    // path above -- the one scalar/vector contract the differential tier
    // pins down to the bit.
    std::uint64_t a, b;
    stats::philox_block(key, ctr + i, a, b);
    double z0, z1;
    stats::det_normal_pair(a, b, z0, z1);
    heading_[i] =
        geo::wrap_angle(heading_[i] + dheading + heading_sd * z0);
    const double len =
        std::max(0.0, step_len * scale_[i] + step_len_sd * z1);
    double s, c;
    stats::det_sincos(heading_[i], s, c);
    px_[i] += c * len;
    py_[i] += s * len;
  }
}

void ParticleFilter::reweight_array(const double* likelihood) {
  double total = 0.0;
  const std::size_t n = px_.size();
  for (std::size_t i = 0; i < n; ++i) {
    weight_[i] *= likelihood[i];
    total += weight_[i];
  }
  if (total <= 0.0) {
    reset_uniform_weights();
    return;
  }
  for (double& w : weight_) w /= total;
}

void ParticleFilter::normalize_weights() {
  double total = 0.0;
  for (const double w : weight_) total += w;
  if (total <= 0.0) {
    reset_uniform_weights();
    return;
  }
  for (double& w : weight_) w /= total;
}

void ParticleFilter::reset_uniform_weights() {
  const double w = 1.0 / static_cast<double>(px_.size());
  for (double& x : weight_) x = w;
}

double ParticleFilter::effective_sample_size() const {
  double sum2 = 0.0;
  for (const double w : weight_) sum2 += w * w;
  return sum2 > 0.0 ? 1.0 / sum2 : 0.0;
}

void ParticleFilter::resample(KernelScratch& scratch,
                              double ess_threshold_fraction) {
  obs::ScopedTimer timer(resample_us_);
  normalize_weights();
  const std::size_t count = px_.size();
  const double n = static_cast<double>(count);
  if (effective_sample_size() >= ess_threshold_fraction * n) return;

  // Systematic resampling: one uniform draw, then N evenly spaced probes
  // through the cumulative weights. Selection indices are computed first
  // (scratch.pick), then each SoA array is gathered through the staging
  // buffer and copied back. Copying rather than swapping keeps every
  // buffer with its owner: the scratch serves other filters next.
  std::vector<std::uint32_t>& pick = scratch.pick;
  pick.resize(count);
  const double step = 1.0 / n;
  std::uint64_t a, b;
  stats::philox_block(key_, ctr_++, a, b);
  double u = stats::hash_to_unit(a) * step;
  double cum = weight_[0];
  std::size_t i = 0;
  for (std::size_t k = 0; k < count; ++k) {
    while (u > cum && i + 1 < count) {
      ++i;
      cum += weight_[i];
    }
    pick[k] = static_cast<std::uint32_t>(i);
    u += step;
  }

  std::vector<double>& staged = scratch.gather;
  staged.resize(count);
  const auto gather = [&pick, &staged, count](std::vector<double>& arr) {
    for (std::size_t k = 0; k < count; ++k) staged[k] = arr[pick[k]];
    std::copy(staged.begin(), staged.end(), arr.begin());
  };
  gather(px_);
  gather(py_);
  gather(heading_);
  gather(scale_);
  for (double& w : weight_) w = step;
}

geo::Vec2 ParticleFilter::mean() const {
  geo::Vec2 m;
  double total = 0.0;
  const std::size_t n = px_.size();
  for (std::size_t i = 0; i < n; ++i) {
    m += geo::Vec2{px_[i], py_[i]} * weight_[i];
    total += weight_[i];
  }
  return total > 0.0 ? m / total : geo::Vec2{};
}

double ParticleFilter::mean_heading() const {
  double sx = 0.0, sy = 0.0;
  const std::size_t n = px_.size();
  for (std::size_t i = 0; i < n; ++i) {
    sx += std::cos(heading_[i]) * weight_[i];
    sy += std::sin(heading_[i]) * weight_[i];
  }
  return std::atan2(sy, sx);
}

double ParticleFilter::spread() const {
  const geo::Vec2 m = mean();
  double s = 0.0, total = 0.0;
  const std::size_t n = px_.size();
  for (std::size_t i = 0; i < n; ++i) {
    s += geo::distance2(geo::Vec2{px_[i], py_[i]}, m) * weight_[i];
    total += weight_[i];
  }
  return total > 0.0 ? std::sqrt(s / total) : 0.0;
}

void ParticleFilter::snapshot_into(offload::ByteWriter& w) const {
  const std::size_t n = px_.size();
  w.put_u32(static_cast<std::uint32_t>(n));
  const auto put_array = [&w, n](const std::vector<double>& arr) {
    for (std::size_t i = 0; i < n; ++i) w.put_f64(arr[i]);
  };
  put_array(px_);
  put_array(py_);
  put_array(heading_);
  put_array(scale_);
  put_array(weight_);
  w.put_u64(key_);
  w.put_u64(ctr_);
}

bool ParticleFilter::restore_from(offload::ByteReader& r) {
  const std::size_t n = px_.size();
  std::uint32_t count;
  if (!r.get_u32(count) || count != n) return false;
  // Decode into scratch first: a truncated buffer must not leave the
  // filter half-overwritten.
  std::vector<std::vector<double>> arrays(5, std::vector<double>(n));
  for (std::vector<double>& arr : arrays) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!r.get_f64(arr[i])) return false;
    }
  }
  std::uint64_t key, ctr;
  if (!r.get_u64(key) || !r.get_u64(ctr)) return false;
  key_ = key;
  ctr_ = ctr;
  px_ = std::move(arrays[0]);
  py_ = std::move(arrays[1]);
  heading_ = std::move(arrays[2]);
  scale_ = std::move(arrays[3]);
  weight_ = std::move(arrays[4]);
  return true;
}

namespace {

// --- Quantized codec (wave payload version 2) -------------------------
//
// Fixed-point u16 grids. The dequantizer places every value exactly on a
// grid point and the quantizer rounds to nearest, so a dequantized value
// re-quantizes to the same code (requantization exactness; the byte-
// stability the delta chain relies on). Divisions by 65536 are exact
// (power-of-two divisor); the residual float error of lo + frac * range
// is ~ulp(lo), many orders of magnitude below the half-step rounding
// boundary for any metric venue, so round-to-nearest can never flip.

constexpr double kQuantScaleLo = 0.25;
constexpr double kQuantScaleRange = 3.75;   // step scales live in ~[0.5, 2]
constexpr double kQuantGridMargin = 64.0;   // m beyond the venue bbox
constexpr double kQuantMinRange = 1.0;      // degenerate-bbox floor, m

std::uint16_t quantize_u16(double v, double lo, double range) {
  if (!std::isfinite(v)) return 0;  // poisoned state: park at the origin
  const double t = (v - lo) / range * 65536.0;
  if (!(t > 0.0)) return 0;  // also catches NaN from inf - inf
  if (t >= 65535.0) return 65535;
  return static_cast<std::uint16_t>(std::lround(t));
}

double dequantize_u16(std::uint16_t q, double lo, double range) {
  return lo + (static_cast<double>(q) / 65536.0) * range;
}

}  // namespace

void ParticleFilter::snapshot_into_quantized(offload::ByteWriter& w,
                                             const geo::BBox& venue) const {
  const std::size_t n = px_.size();
  const geo::BBox grid = venue.empty()
                             ? geo::BBox{{-kQuantGridMargin, -kQuantGridMargin},
                                         {kQuantGridMargin, kQuantGridMargin}}
                             : venue.inflated(kQuantGridMargin);
  const double x_lo = grid.min.x;
  const double x_range = std::max(grid.width(), kQuantMinRange);
  const double y_lo = grid.min.y;
  const double y_range = std::max(grid.height(), kQuantMinRange);
  w.put_u32(static_cast<std::uint32_t>(n));
  // The grid is stored in the stream: restore needs no venue, and a
  // changed venue between snapshots only changes the codes, never the
  // decode of old waves.
  w.put_f64(x_lo);
  w.put_f64(x_range);
  w.put_f64(y_lo);
  w.put_f64(y_range);
  for (std::size_t i = 0; i < n; ++i) {
    w.put_u16(quantize_u16(px_[i], x_lo, x_range));
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.put_u16(quantize_u16(py_[i], y_lo, y_range));
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Headings are wrapped to (-pi, pi] by init()/predict(); the grid
    // covers exactly one turn, so the only clamp is pi -> pi - step.
    w.put_u16(quantize_u16(heading_[i], -std::numbers::pi, 2.0 * std::numbers::pi));
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.put_u16(quantize_u16(scale_[i], kQuantScaleLo, kQuantScaleRange));
  }
  // Weights encode relative to the cloud maximum. The max weight uses
  // code 65535 over divisor 65535, so it dequantizes *exactly* (q/65535
  // == 1.0): the restored cloud's max equals the stored w_max and the
  // relative codes requantize unchanged. It also guarantees at least one
  // strictly positive weight, so a restored cloud can never collapse to
  // an all-zero (NaN-mean) state.
  double w_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isfinite(weight_[i]) && weight_[i] > w_max) w_max = weight_[i];
  }
  w.put_f64(w_max);
  for (std::size_t i = 0; i < n; ++i) {
    double ratio = w_max > 0.0 ? weight_[i] / w_max : 0.0;
    if (!std::isfinite(ratio) || ratio < 0.0) ratio = 0.0;
    if (ratio > 1.0) ratio = 1.0;
    w.put_u16(static_cast<std::uint16_t>(std::lround(ratio * 65535.0)));
  }
  w.put_u64(key_);
  w.put_u64(ctr_);
}

bool ParticleFilter::restore_from_quantized(offload::ByteReader& r) {
  const std::size_t n = px_.size();
  std::uint32_t count;
  if (!r.get_u32(count) || count != n) return false;
  double x_lo, x_range, y_lo, y_range;
  if (!r.get_f64(x_lo) || !r.get_f64(x_range) || !r.get_f64(y_lo) ||
      !r.get_f64(y_range)) {
    return false;
  }
  // A hostile stream could carry NaN/inf grid parameters; dequantizing
  // through them would poison every particle, so reject up front.
  if (!std::isfinite(x_lo) || !std::isfinite(y_lo) ||
      !std::isfinite(x_range) || !std::isfinite(y_range) ||
      x_range <= 0.0 || y_range <= 0.0) {
    return false;
  }
  // Scratch-decode-then-commit, same as restore_from.
  std::vector<double> nx(n), ny(n), nh(n), ns(n), nw(n);
  const auto read_axis = [&r, n](std::vector<double>& out, double lo,
                                 double range) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint16_t q;
      if (!r.get_u16(q)) return false;
      out[i] = dequantize_u16(q, lo, range);
    }
    return true;
  };
  if (!read_axis(nx, x_lo, x_range) || !read_axis(ny, y_lo, y_range) ||
      !read_axis(nh, -std::numbers::pi, 2.0 * std::numbers::pi) ||
      !read_axis(ns, kQuantScaleLo, kQuantScaleRange)) {
    return false;
  }
  double w_max;
  if (!r.get_f64(w_max) || !std::isfinite(w_max) || w_max < 0.0) return false;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t q;
    if (!r.get_u16(q)) return false;
    // Division by 65535 last would round; dividing the code first makes
    // q == 65535 an exact 1.0, restoring the max weight bit-exactly.
    nw[i] = w_max > 0.0 ? (static_cast<double>(q) / 65535.0) * w_max
                        : 1.0 / static_cast<double>(n);
  }
  std::uint64_t key, ctr;
  if (!r.get_u64(key) || !r.get_u64(ctr)) return false;
  key_ = key;
  ctr_ = ctr;
  px_ = std::move(nx);
  py_ = std::move(ny);
  heading_ = std::move(nh);
  scale_ = std::move(ns);
  weight_ = std::move(nw);
  return true;
}

std::size_t KernelScratch::bytes() const {
  return (gather.capacity() + turned.capacity() + stride.capacity()) *
             sizeof(double) +
         pick.capacity() * sizeof(std::uint32_t);
}

}  // namespace uniloc::filter
