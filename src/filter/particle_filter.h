// Generic 2-D particle filter, structure-of-arrays fast path.
//
// Both the motion-based PDR scheme [7] and the Travi-Navi-style fusion
// scheme [11] maintain ~300 particles that are propagated by the step
// model, weighted (by map constraints and/or RSSI likelihood) and
// systematically resampled. The filter is generic over the motion and
// weighting callbacks so the two schemes share one implementation.
//
// Storage is structure-of-arrays: positions, headings, step scales and
// weights live in five contiguous double arrays, so the per-epoch sweeps
// (predict, reweight, moments, resample) stream through cache lines
// instead of striding over 40-byte Particle structs. Systematic
// resampling is O(N). The filter holds only its state -- the five arrays
// and the generator; predict() and resample() stage their working memory
// in a caller-owned KernelScratch, so one scratch serves every filter a
// thread steps and a warm cycle performs no allocation.
//
// The generator is Philox4x32-10 (stats/philox.h): a key, splitmix64 of
// the seed, and a block counter -- 16 bytes. Every draw is a pure
// function of (key, block index), so the random stream is a pure
// function of (seed, call sequence). The block layout is the filter's
// contract, with n the particle count and c the counter at entry:
//
//   init()      particle i takes blocks c + 2i and c + 2i + 1; the
//               det_normal_pair of the first gives its x and y noise,
//               that of the second its heading and scale noise. c += 2n.
//   predict()   particle i takes block c + i; its det_normal_pair gives
//               the heading and step noise. c += n.
//   resample()  takes block c and draws u = (a >> 11) * 2^-53 * step
//               from its first word. c += 1.
//
// Draws are addressed, not consumed in order, so the vector and scalar
// paths compute each lane's block independently. The golden traces
// (tests/golden/) pin this stream bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geo/bbox.h"
#include "geo/vec2.h"
#include "offload/bytes.h"

namespace uniloc::obs {
class Histogram;
class MetricsRegistry;
}  // namespace uniloc::obs

namespace uniloc::filter {

/// Value view of one particle (assembled from the SoA arrays on access;
/// the weighting callbacks receive it by reference to a stack temporary).
struct Particle {
  geo::Vec2 pos;
  double heading{0.0};      ///< Per-particle heading (rad, CCW from +x).
  double step_scale{1.0};   ///< Per-particle step-length multiplier
                            ///< (gait personalization, paper Sec. III-B).
  double weight{1.0};
};

/// Working memory of predict() and resample(). Every buffer is resized
/// and rewritten before it is read, so nothing carries from one call to
/// the next and one scratch serves any number of filters in turn: the
/// epoch pipeline keeps one per worker thread in its epoch arena
/// (core::EpochScratch). Once the buffers have grown to the largest
/// particle count they serve, a cycle allocates nothing.
struct KernelScratch {
  std::vector<std::uint32_t> pick;  ///< Resampling ancestor indices.
  std::vector<double> gather;       ///< Resampling gather staging.
  /// predict()'s vector path: each particle's unwrapped heading (the
  /// input of the rare wrap_angle fallback) and its step length.
  std::vector<double> turned, stride;

  /// Heap capacity held (perf.scratch_bytes accounting).
  std::size_t bytes() const;
};

class ParticleFilter {
 public:
  /// The filter owns its generator, seeded here.
  ParticleFilter(std::size_t num_particles, std::uint64_t seed);

  /// Restart the random stream as if freshly constructed with `seed`.
  /// Resetting a scheme reseeds instead of rebuilding the filter, so
  /// array capacity and attached instruments survive the reset.
  void reseed(std::uint64_t seed);

  /// Initialize all particles at `pos` with heading jitter `heading_sd`,
  /// position jitter `pos_sd` and step-scale jitter `scale_sd`.
  void init(geo::Vec2 pos, double heading, double pos_sd, double heading_sd,
            double scale_sd);

  /// Propagate every particle by one step of nominal length `step_len`
  /// turned by `dheading` since the last update, with process noise.
  void predict(double step_len, double dheading, double step_len_sd,
               double heading_sd, KernelScratch& scratch);

  /// Multiply each particle's weight by `likelihood(particle)`.
  /// Weights are renormalized; if all likelihoods are zero the particle
  /// cloud is left unweighted (uniform) to avoid collapse.
  /// Templated so call-site lambdas are inlined -- no std::function
  /// wrapper, no heap capture on the hot path.
  template <typename F>
  void reweight(F&& likelihood) {
    reweight_indexed([&likelihood](std::size_t, const Particle& p) {
      return likelihood(p);
    });
  }

  /// Like reweight, but the callback also receives the particle's index
  /// (used to correlate with externally-kept per-particle state such as
  /// pre-step positions for wall-crossing tests).
  template <typename F>
  void reweight_indexed(F&& likelihood) {
    double total = 0.0;
    const std::size_t n = px_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Particle p{{px_[i], py_[i]}, heading_[i], scale_[i], weight_[i]};
      weight_[i] *= likelihood(i, p);
      total += weight_[i];
    }
    if (total <= 0.0) {
      // Every particle was killed (e.g. all crossed a wall): reset to
      // uniform rather than dividing by zero; the caller's map
      // constraints will re-shape the cloud on subsequent updates.
      reset_uniform_weights();
      return;
    }
    for (double& w : weight_) w /= total;
  }

  /// Multiply each particle's weight by `likelihood[i]` for a caller-filled
  /// array of size() entries. This is the commit step of the SIMD reweight
  /// kernels: a vector loop fills one lane per particle, then the weights
  /// are updated here in exactly the accumulation order of
  /// reweight_indexed, so the two entry points are bit-identical.
  void reweight_array(const double* likelihood);

  /// Systematic resampling. Runs only when the effective sample size
  /// drops below `ess_threshold_fraction * N` (pass 1.0 to always resample).
  void resample(KernelScratch& scratch, double ess_threshold_fraction = 0.5);

  /// Weighted mean position of the cloud.
  geo::Vec2 mean() const;

  /// Weighted circular-mean heading of the cloud.
  double mean_heading() const;

  /// Weighted positional spread (RMS distance from the mean).
  double spread() const;

  /// Effective sample size 1 / sum(w^2) for normalized weights.
  double effective_sample_size() const;

  std::size_t size() const { return px_.size(); }

  // SoA accessors (hot path: no Particle assembly, no copies).
  // The raw-array views feed the lane-per-particle SIMD kernels in the
  // schemes (read-only; writes go through reweight_array / set_weight).
  const double* pos_xs() const { return px_.data(); }
  const double* pos_ys() const { return py_.data(); }
  geo::Vec2 pos(std::size_t i) const { return {px_[i], py_[i]}; }
  double heading(std::size_t i) const { return heading_[i]; }
  double step_scale(std::size_t i) const { return scale_[i]; }
  double weight(std::size_t i) const { return weight_[i]; }
  void set_weight(std::size_t i, double w) { weight_[i] = w; }

  /// Assembled value view of particle `i` (tests, diagnostics).
  Particle particle(std::size_t i) const {
    return {{px_[i], py_[i]}, heading_[i], scale_[i], weight_[i]};
  }

  /// Snapshot codec: particle count, the five SoA arrays, then the
  /// generator as u64 key and u64 block counter (16 bytes). Because the
  /// block layout is pinned (see the contract above) and the generator is
  /// the filter's only hidden state, a restored filter continues the
  /// random stream bit for bit.
  void snapshot_into(offload::ByteWriter& w) const;
  /// Rejects (returns false, filter unchanged) on truncation or a
  /// particle count that does not match this filter's. Every key and
  /// counter value is a valid generator state.
  bool restore_from(offload::ByteReader& r);

  /// Quantized snapshot codec (wave payload version 2): positions as u16
  /// fixed-point per axis over `venue` (inflated by a fixed margin so
  /// strayed particles stay on the grid), headings as u16 over (-pi, pi],
  /// step scales as u16 over [0.25, 4], weights as u16 relative to the
  /// cloud's max weight (the max restores exactly, so the cloud can never
  /// dequantize to all-zero weights). The 16-byte generator field is
  /// bit-exact -- only the five SoA arrays are lossy, each value off by
  /// at most half a grid step (DESIGN.md section 17 budgets the error).
  /// The codec is *requantization-exact*: restore_from_quantized
  /// followed by snapshot_into_quantized reproduces the identical bytes,
  /// so a delta chain over quantized keyframes is byte-stable.
  void snapshot_into_quantized(offload::ByteWriter& w,
                               const geo::BBox& venue) const;
  /// Hostile-input safe like restore_from: rejects truncation, particle
  /// count mismatch and non-finite grid parameters, leaving the filter
  /// unchanged.
  bool restore_from_quantized(offload::ByteReader& r);

  /// Route predict()/resample() latencies into `registry` histograms
  /// `<prefix>.predict_us` / `<prefix>.resample_us`. Null detaches (the
  /// default): detached filters perform no clock reads.
  void attach_metrics(obs::MetricsRegistry* registry,
                      const std::string& prefix);

 private:
  void normalize_weights();
  void reset_uniform_weights();

  // Structure-of-arrays particle storage, index-aligned.
  std::vector<double> px_, py_, heading_, scale_, weight_;
  /// Philox4x32-10 key (splitmix64 of the seed) and the next unused
  /// block index.
  std::uint64_t key_{0};
  std::uint64_t ctr_{0};
  obs::Histogram* predict_us_{nullptr};
  obs::Histogram* resample_us_{nullptr};
};

}  // namespace uniloc::filter
