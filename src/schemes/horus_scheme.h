// Horus-style probabilistic WiFi fingerprinting ([2], paper Table I).
//
// Where RADAR ranks fingerprints by Euclidean RSSI distance, Horus treats
// each fingerprint as a per-AP Gaussian RSSI distribution and computes the
// posterior P(l | scan) by Bayes' rule. The paper notes Horus needs
// hundreds of samples per location to estimate those distributions; with
// the single-sample-per-AP databases the paper (and we) collect, the
// per-AP spread is a fixed radio parameter instead -- the honest
// single-sample approximation.
//
// Included as an alternative member of the WiFi fingerprinting family:
// it slots into UniLoc with the same error model as RADAR (same family,
// same features) and bench/ablation_radar_vs_horus compares the two.
#pragma once

#include "schemes/fingerprint_db.h"
#include "schemes/scheme.h"

namespace uniloc::schemes {

class HorusScheme final : public LocalizationScheme {
 public:
  struct Options {
    double rssi_sigma_db = 4.0;   ///< Per-AP likelihood spread.
    double missing_penalty = 3.0; ///< Sigmas charged for an AP present in
                                  ///< exactly one of scan/fingerprint.
    std::size_t top_k = 20;       ///< Posterior support size.
    std::size_t min_transmitters = 2;
  };

  HorusScheme(const FingerprintDatabase* db, Options opts);

  std::string name() const override { return "Horus"; }
  SchemeFamily family() const override {
    return db_->source() == FingerprintDatabase::Source::kWifi
               ? SchemeFamily::kWifiFingerprint
               : SchemeFamily::kCellFingerprint;
  }
  void reset(const StartCondition& start) override;
  void update_into(const sim::SensorFrame& frame, SchemeOutput& out) override;

  /// Log-likelihood of a scan under one fingerprint's distributions.
  double log_likelihood(const std::vector<sim::ApReading>& scan,
                        const Fingerprint& fp) const;

 private:
  const FingerprintDatabase* db_;
  Options opts_;
};

}  // namespace uniloc::schemes
