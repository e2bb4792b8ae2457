// The localization-scheme abstraction.
//
// UniLoc treats every scheme as a black box that turns the current
// SensorFrame into (a) a point estimate, and (b) a posterior
// P(l = l_i | M_n, s_t) over locations -- the quantity the locally-weighted
// BMA of Eq. 3 mixes. A scheme that cannot localize this epoch reports
// available = false and is excluded from the ensemble (its confidence is
// treated as zero, paper Sec. IV-A).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geo/bbox.h"
#include "geo/grid.h"
#include "geo/vec2.h"
#include "sim/sensor_frame.h"

namespace uniloc::obs {
class MetricsRegistry;
}  // namespace uniloc::obs

namespace uniloc::offload {
class ByteWriter;
class ByteReader;
}  // namespace uniloc::offload

namespace uniloc::schemes {

struct EpochContext;  // schemes/epoch_context.h

/// Codec selection for scheme snapshots, threaded from the wave payload
/// version (svc/delta.h). `quantize` selects the fixed-point particle
/// codec (payload version 2); `venue` supplies its position grid and
/// must be identical between the snapshot and any later re-snapshot of
/// the restored state (the server passes the session's Place bounds,
/// which are immutable for a session's lifetime). The default context
/// selects the lossless f64 codec (payload version 1) -- the only one
/// permitted for crash/restore bit-identity.
struct SnapshotContext {
  bool quantize{false};
  geo::BBox venue;
};

/// Families group schemes by the sensor data they consume; every family
/// shares one error-model feature set (paper Table I).
enum class SchemeFamily {
  kGps,
  kWifiFingerprint,
  kCellFingerprint,
  kMotionPdr,
  kFusion,
  kOther,  ///< User-integrated schemes (see examples/custom_scheme.cpp).
};

const char* family_name(SchemeFamily f);

/// Discrete posterior over candidate locations, kept sparse: only cells
/// with non-negligible mass are stored. Weights are normalized to sum to 1.
struct WeightedPoint {
  geo::Vec2 pos;
  double weight{0.0};
};

struct Posterior {
  std::vector<WeightedPoint> support;

  bool empty() const { return support.empty(); }

  /// Normalize weights in place (no-op on empty support).
  void normalize();

  /// Posterior expectation E[l] -- what Eq. 4 evaluates per axis.
  geo::Vec2 mean() const;

  /// RMS distance of support from the mean (posterior spread).
  double spread() const;

  /// Rasterize onto a grid (cell mass = sum of contained support mass).
  std::vector<double> to_grid(const geo::Grid& grid) const;

  /// A single-point posterior.
  static Posterior point(geo::Vec2 p);

  /// Gaussian-kernel posterior around `center` with scale `sigma`,
  /// sampled on a (2r+1)^2 stencil with spacing sigma/2.
  static Posterior gaussian(geo::Vec2 center, double sigma, int r = 3);

  /// gaussian() into a caller-owned posterior: identical support sequence
  /// and weights, but the support buffer's capacity is reused (the epoch
  /// pipeline rebuilds the GPS posterior every epoch).
  static void gaussian_into(geo::Vec2 center, double sigma, int r,
                            Posterior& out);
};

struct SchemeOutput {
  bool available{false};
  geo::Vec2 estimate;        ///< Point estimate in the local map frame.
  Posterior posterior;       ///< P(l | M_n, s_t); empty if unavailable.
  /// Scheme-reported auxiliary observables (e.g. GPS "hdop",
  /// "num_satellites"). These mirror what a real scheme exposes in its
  /// public output; UniLoc's feature extractors may read them but never
  /// require scheme internals.
  std::map<std::string, double> observables;
};

/// Known starting state for dead-reckoning style schemes (the paper starts
/// every trace at a known point, as do Travi-Navi and [7]).
struct StartCondition {
  geo::Vec2 pos;
  double heading{0.0};
};

/// The one contract a user-integrated scheme implements. A scheme
/// overrides name(), family(), reset() and update_into(); that is the
/// whole integration cost besides its error model (Uniloc::add_scheme).
/// A scheme with state that must survive a checkpoint also overrides the
/// SnapshotContext pair; a scheme with internal stages worth timing
/// overrides attach_metrics. Everything else has a working default.
class LocalizationScheme {
 public:
  virtual ~LocalizationScheme() = default;

  virtual std::string name() const = 0;
  virtual SchemeFamily family() const = 0;

  /// Prepare for a new walk starting at `start`.
  virtual void reset(const StartCondition& start) = 0;

  /// Consume one epoch of sensor data and localize into `out`, a slot
  /// the pipeline reuses from epoch to epoch. Consumers gate on
  /// `out.available`, so an unavailable epoch may leave the rest of the
  /// slot stale. The slot may last have been written by another
  /// session's scheme -- the service's epoch arenas are per thread -- so
  /// an epoch that reports `available` must write every field a consumer
  /// reads: the estimate, the posterior, and every observable its
  /// family's features look up (core/features.h). Reusing the slot's
  /// buffers is what makes an epoch allocation-free.
  virtual void update_into(const sim::SensorFrame& frame,
                           SchemeOutput& out) = 0;

  /// Convenience wrapper for offline training, examples and tests:
  /// update_into on a fresh output.
  virtual SchemeOutput update(const sim::SensorFrame& frame) {
    SchemeOutput out;
    update_into(frame, out);
    return out;
  }

  /// Install the shared per-epoch state (nullptr detaches). The epoch
  /// pipeline installs it before each epoch's update_into round and
  /// detaches it after the epoch, so schemes querying the same sensor
  /// scan share one candidate evaluation and their kernels borrow the
  /// arena's buffers (schemes/epoch_context.h). The context lives in an
  /// EpochScratch -- in the service, the arena of whichever worker thread
  /// serves the epoch -- so a scheme must not keep using it once the
  /// epoch ends (DESIGN.md section 11). Without a context, update_into
  /// must give the same output from private buffers. Default: the scheme
  /// keeps no shared state.
  virtual void set_epoch_context(EpochContext* ctx) { (void)ctx; }

  /// Attach internal-stage latency instrumentation to `registry`
  /// (nullptr detaches). Default: the scheme has no internal stages worth
  /// timing; Uniloc already times the whole localize call per scheme.
  virtual void attach_metrics(obs::MetricsRegistry* registry) {
    (void)registry;
  }

  /// Serialize the scheme's persistent mutable state (everything reset()
  /// initializes and update_into() evolves) for a session checkpoint;
  /// `ctx.quantize` selects the fixed-point particle codec. The default
  /// covers stateless schemes: nothing written, restore succeeds.
  /// Stateful schemes override both; restore_from must consume exactly
  /// the bytes snapshot_into wrote (the caller length-prefixes each
  /// scheme payload and verifies the framing), reject malformed input by
  /// returning false, and leave the scheme usable either way.
  virtual void snapshot_into(offload::ByteWriter& /*w*/,
                             const SnapshotContext& /*ctx*/) const {}
  virtual bool restore_from(offload::ByteReader& /*r*/,
                            const SnapshotContext& /*ctx*/) {
    return true;
  }

  /// The lossless codec: the pair above under the default context.
  virtual void snapshot_into(offload::ByteWriter& w) const {
    snapshot_into(w, SnapshotContext{});
  }
  virtual bool restore_from(offload::ByteReader& r) {
    return restore_from(r, SnapshotContext{});
  }

  /// Likelihood-cache query outcomes accumulated by this scheme's
  /// unmemoized queries. Zero for schemes that do no RSSI matching. The
  /// counters live in per-scheme scratch, so concurrent sessions (which
  /// own disjoint scheme instances) never contend.
  virtual std::uint64_t cache_hits() const { return 0; }
  virtual std::uint64_t cache_misses() const { return 0; }
};

using SchemePtr = std::unique_ptr<LocalizationScheme>;

}  // namespace uniloc::schemes
