#include "schemes/fingerprint_scheme.h"

#include <cmath>

#include "schemes/epoch_context.h"
#include "stats/descriptive.h"

namespace uniloc::schemes {

FingerprintScheme::FingerprintScheme(const FingerprintDatabase* db,
                                     Options opts)
    : db_(db), opts_(opts) {}

std::string FingerprintScheme::name() const {
  return db_->source() == FingerprintDatabase::Source::kWifi ? "WiFi"
                                                             : "Cellular";
}

SchemeFamily FingerprintScheme::family() const {
  return db_->source() == FingerprintDatabase::Source::kWifi
             ? SchemeFamily::kWifiFingerprint
             : SchemeFamily::kCellFingerprint;
}

void FingerprintScheme::reset(const StartCondition&) {
  if (opts_.calibrate_offset) calibrator_ = OffsetCalibrator();
}

void FingerprintScheme::update_into(const sim::SensorFrame& frame,
                                    SchemeOutput& out) {
  // Key lengths: "num_transmitters" (16) and "top3_distance_sd" (16)
  // exceed libstdc++'s 15-char SSO buffer, so build them once.
  static const std::string kNumTransmitters = "num_transmitters";
  static const std::string kTopDistance = "top_distance";
  static const std::string kTop3DistanceSd = "top3_distance_sd";

  out.available = false;
  const std::vector<sim::ApReading>& raw =
      db_->source() == FingerprintDatabase::Source::kWifi ? frame.wifi
                                                          : frame.cell;
  if (raw.size() < opts_.min_transmitters || db_->empty()) return;

  const std::vector<sim::ApReading>* scan = &raw;
  if (opts_.calibrate_offset) {
    // Calibration allocates internally (it copies the scan and runs an
    // exact NN query); deployments that enable it trade the zero-alloc
    // guarantee for device-offset robustness.
    scan_buf_.assign(raw.begin(), raw.end());
    scan_buf_ = calibrator_.calibrate(std::move(scan_buf_), *db_);
    scan = &scan_buf_;
  }

  // RADAR's nearest neighbour in signal space. The raw scan is the one
  // other stages (fusion, the rssi_dist_sd feature) query this epoch, so
  // its candidate evaluation is shared through the epoch context; a
  // calibrated scan is private to this scheme and keeps its private
  // scratch. Without an epoch context there is no arena to borrow
  // buffers from, so the query stages in a private set.
  SchemeScratch own;
  SchemeScratch& buf = epoch_ctx_ != nullptr ? epoch_ctx_->buffers : own;
  std::vector<Match>& matches = buf.matches;
  ScanMemo* memo = (epoch_ctx_ != nullptr && scan == &raw)
                       ? epoch_ctx_->memo_for(db_)
                       : nullptr;
  if (memo != nullptr) {
    db_->k_nearest_memo(*scan, opts_.top_k, epoch_ctx_->tag, *memo, matches);
  } else {
    db_->k_nearest_into(*scan, opts_.top_k, scan_scratch_, matches);
  }
  if (matches.empty()) return;

  out.available = true;
  out.estimate = db_->fingerprints()[matches[0].index].pos;

  // Softmax posterior over the top-K candidates, relative to the best
  // distance so the temperature acts on the *gap* between candidates.
  const double best = matches[0].distance;
  out.posterior.support.clear();
  for (const Match& m : matches) {
    const double w =
        std::exp(-(m.distance - best) / opts_.softmax_scale_db);
    out.posterior.support.push_back({db_->fingerprints()[m.index].pos, w});
  }
  out.posterior.normalize();

  // Public observables mirroring what a deployed RADAR exposes.
  out.observables[kNumTransmitters] = static_cast<double>(scan->size());
  std::vector<double>& top3 = buf.top3;
  top3.clear();
  for (std::size_t i = 0; i < matches.size() && i < 3; ++i) {
    top3.push_back(matches[i].distance);
  }
  out.observables[kTopDistance] = best;
  out.observables[kTop3DistanceSd] =
      top3.size() >= 2 ? stats::stddev(top3) : 0.0;
}

}  // namespace uniloc::schemes
