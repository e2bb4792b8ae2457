// RSSI fingerprinting localization (RADAR [1] on WiFi; Otsason et
// al. [22] on cellular -- same algorithm, different radio).
//
// Offline: a fingerprint database collected along the walkways. Online:
// the scan's RSSI distance to every fingerprint; the estimate is the
// fingerprint with the smallest distance (RADAR's nearest neighbour in
// signal space); the posterior is a softmax over the top-K candidates.
// Optional online offset calibration absorbs device heterogeneity.
#pragma once

#include <memory>

#include "schemes/fingerprint_db.h"
#include "schemes/offset_calibration.h"
#include "schemes/scheme.h"

namespace uniloc::schemes {

class FingerprintScheme final : public LocalizationScheme {
 public:
  struct Options {
    std::size_t top_k = 20;         ///< Posterior support size.
    double softmax_scale_db = 6.0;  ///< Softmax temperature (dB).
    bool calibrate_offset = false;  ///< Online device-offset calibration.
    std::size_t min_transmitters = 1;  ///< Below this: unavailable.
  };

  /// `db` must outlive the scheme.
  FingerprintScheme(const FingerprintDatabase* db, Options opts);

  std::string name() const override;
  SchemeFamily family() const override;
  void reset(const StartCondition& start) override;
  void update_into(const sim::SensorFrame& frame, SchemeOutput& out) override;
  void set_epoch_context(EpochContext* ctx) override { epoch_ctx_ = ctx; }
  // The calibrator holds no particles: every context is lossless.
  void snapshot_into(offload::ByteWriter& w,
                     const SnapshotContext&) const override {
    calibrator_.snapshot_into(w);
  }
  bool restore_from(offload::ByteReader& r, const SnapshotContext&) override {
    return calibrator_.restore_from(r);
  }

  const FingerprintDatabase& database() const { return *db_; }

  std::uint64_t cache_hits() const override { return scan_scratch_.cache_hits; }
  std::uint64_t cache_misses() const override {
    return scan_scratch_.cache_misses;
  }

 private:
  const FingerprintDatabase* db_;
  Options opts_;
  OffsetCalibrator calibrator_;
  EpochContext* epoch_ctx_{nullptr};

  /// Likelihood-cache workspace for queries the epoch memo cannot serve.
  ScanScratch scan_scratch_;
  /// Device-calibrated copy of the scan (calibrate_offset only).
  std::vector<sim::ApReading> scan_buf_;
};

}  // namespace uniloc::schemes
