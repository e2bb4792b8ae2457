#include "core/deployment.h"

#include "schemes/fingerprint_scheme.h"
#include "schemes/fusion_scheme.h"
#include "schemes/gps_scheme.h"
#include "schemes/pdr_scheme.h"

namespace uniloc::core {

Deployment make_deployment(sim::Place place, DeploymentOptions opts) {
  Deployment d;
  d.options = opts;
  d.place = std::make_unique<sim::Place>(std::move(place));
  d.radio = std::make_unique<sim::RadioEnvironment>(
      d.place.get(), opts.wifi, opts.cell, opts.seed);
  d.wifi_db = std::make_unique<schemes::FingerprintDatabase>(
      schemes::FingerprintDatabase::build(
          *d.place, *d.radio, schemes::FingerprintDatabase::Source::kWifi,
          opts.indoor_fp_spacing_m, opts.outdoor_fp_spacing_m, opts.seed));
  d.cell_db = std::make_unique<schemes::FingerprintDatabase>(
      schemes::FingerprintDatabase::build(
          *d.place, *d.radio, schemes::FingerprintDatabase::Source::kCellular,
          opts.cell_indoor_fp_spacing_m, opts.cell_outdoor_fp_spacing_m,
          opts.seed + 1));
  // Deployment-time warmup (like Place::prebuild_wall_index): the cached
  // matching fast path is table lookups from the first epoch on, and the
  // shared databases stay read-only once sessions start querying them.
  // Same story for the walkway-candidate index behind the PDR filters'
  // per-particle environment lookups: built here, immutable afterwards.
  d.wifi_db->prebuild_likelihood_cache();
  d.cell_db->prebuild_likelihood_cache();
  d.place->prebuild_env_index();
  return d;
}

std::vector<schemes::SchemePtr> make_schemes(
    const sim::Place* place, const schemes::FingerprintDatabase* wifi_db,
    const schemes::FingerprintDatabase* cell_db, bool calibrate_offset,
    std::uint64_t seed) {
  std::vector<schemes::SchemePtr> out;

  out.push_back(std::make_unique<schemes::GpsScheme>(place->frame()));

  // The softmax temperature tracks each radio's typical RSSI-distance
  // spread: WiFi distances differ by several dB between candidates,
  // cellular ones by a fraction of that.
  schemes::FingerprintScheme::Options wifi_opts;
  wifi_opts.calibrate_offset = calibrate_offset;
  wifi_opts.softmax_scale_db = 3.0;
  wifi_opts.top_k = 15;
  // "When the number of audible APs is less than 3, it is unlikely for
  // the RSSI fingerprinting scheme to provide a meaningful result"
  // (Sec. III-B); below 2 we declare the scheme unavailable.
  wifi_opts.min_transmitters = 2;
  out.push_back(
      std::make_unique<schemes::FingerprintScheme>(wifi_db, wifi_opts));
  schemes::FingerprintScheme::Options cell_opts;
  cell_opts.calibrate_offset = calibrate_offset;
  cell_opts.softmax_scale_db = 1.2;
  cell_opts.top_k = 10;
  out.push_back(
      std::make_unique<schemes::FingerprintScheme>(cell_db, cell_opts));

  schemes::PdrOptions pdr_opts;
  pdr_opts.seed = seed;
  out.push_back(std::make_unique<schemes::PdrScheme>(place, pdr_opts));

  schemes::FusionOptions fusion_opts;
  fusion_opts.pdr = pdr_opts;
  fusion_opts.pdr.seed = seed + 1;
  out.push_back(
      std::make_unique<schemes::FusionScheme>(place, wifi_db, fusion_opts));
  return out;
}

std::vector<schemes::SchemePtr> make_standard_schemes(const Deployment& d,
                                                      bool calibrate_offset,
                                                      std::uint64_t seed) {
  return make_schemes(d.place.get(), d.wifi_db.get(), d.cell_db.get(),
                      calibrate_offset, seed);
}

}  // namespace uniloc::core
