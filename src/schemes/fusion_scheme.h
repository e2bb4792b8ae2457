// Sensor-fusion localization (Travi-Navi [11] style).
//
// Extends the motion-based PDR particle filter by additionally weighting
// particles with WiFi evidence: fingerprints whose RSSI vector is close to
// the online scan attract nearby particles. Crucially -- and this is the
// failure mode the paper's motivation highlights -- the fusion applies
// the *same* RSSI processing everywhere: in regions with low-quality RSSI
// the attraction pulls the cloud toward wrong fingerprints, making fusion
// worse than plain PDR at those spots (Fig. 2 around 180 m). UniLoc's
// error model captures this through the fingerprint-density feature.
#pragma once

#include "schemes/fingerprint_db.h"
#include "schemes/pdr_scheme.h"

namespace uniloc::schemes {

struct FusionOptions {
  PdrOptions pdr{};
  std::size_t rssi_top_k = 15;     ///< Candidate fingerprints per scan.
  double rssi_scale_db = 6.0;      ///< RSSI likelihood temperature.
  double spatial_sd_m = 6.0;      ///< Attraction radius around candidates.
  double floor_likelihood = 0.05;  ///< Keeps particles alive away from
                                   ///< all candidates (RSSI is a hint,
                                   ///< not a hard constraint).
};

class FusionScheme final : public PdrScheme {
 public:
  /// `db` is the WiFi fingerprint database; must outlive the scheme.
  FusionScheme(const sim::Place* place, const FingerprintDatabase* db,
               FusionOptions opts);

  std::string name() const override { return "Fusion"; }
  SchemeFamily family() const override { return SchemeFamily::kFusion; }

  std::uint64_t cache_hits() const override { return scan_scratch_.cache_hits; }
  std::uint64_t cache_misses() const override {
    return scan_scratch_.cache_misses;
  }

 protected:
  void extra_reweight(const sim::SensorFrame& frame,
                      SchemeScratch& buf) override;

 private:
  const FingerprintDatabase* db_;
  FusionOptions opts_;

  /// Likelihood-cache workspace for queries the epoch memo cannot serve.
  ScanScratch scan_scratch_;
};

}  // namespace uniloc::schemes
