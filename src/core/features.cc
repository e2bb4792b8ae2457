#include "core/features.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace uniloc::core {

namespace {

using schemes::SchemeFamily;

double observable_or(const schemes::SchemeOutput& out, const std::string& key,
                     double fallback) {
  const auto it = out.observables.find(key);
  return it != out.observables.end() ? it->second : fallback;
}

/// beta2 of the fingerprinting models: deviation of the RSSI distances of
/// the k=3 best candidates. Small deviation = ambiguous candidates = the
/// estimate is more likely wrong (negative regression coefficient).
double top3_distance_sd(const schemes::FingerprintDatabase* db,
                        const std::vector<sim::ApReading>& scan,
                        schemes::ScanScratch& scan_scratch,
                        FeatureScratch& scratch) {
  if (db == nullptr || db->empty() || scan.empty()) return 0.0;
  // The schemes already evaluated this scan against this database earlier
  // in the epoch; serve the top 3 from the shared memo when one is around.
  schemes::ScanMemo* memo =
      scratch.epoch_ctx != nullptr ? scratch.epoch_ctx->memo_for(db) : nullptr;
  if (memo != nullptr) {
    db->k_nearest_memo(scan, 3, scratch.epoch_ctx->tag, *memo,
                       scratch.matches);
  } else {
    db->k_nearest_into(scan, 3, scan_scratch, scratch.matches);
  }
  if (scratch.matches.size() < 2) return 0.0;
  scratch.top3.clear();
  for (const schemes::Match& m : scratch.matches) {
    scratch.top3.push_back(m.distance);
  }
  return stats::stddev(scratch.top3);
}

double density_or_large(const schemes::FingerprintDatabase* db,
                        geo::Vec2 pos, FeatureScratch& scratch) {
  if (db == nullptr || db->empty()) return 50.0;
  return std::min(50.0, db->local_density(pos, 4, scratch.knn));
}

double corridor_width(const FeatureContext& ctx) {
  if (ctx.place == nullptr) return 10.0;
  // The indexed lookup: bit-identical to environment_at (the kernel
  // oracles pin it), without projecting onto every walkway edge.
  return ctx.place->environment_at_fast(ctx.predicted_location)
      .corridor_width_m;
}

}  // namespace

std::vector<std::string> feature_names(SchemeFamily family) {
  switch (family) {
    case SchemeFamily::kWifiFingerprint:
    case SchemeFamily::kCellFingerprint:
      return {"fp_density", "rssi_dist_sd"};
    case SchemeFamily::kMotionPdr:
      return {"dist_since_landmark", "corridor_width"};
    case SchemeFamily::kFusion:
      return {"dist_since_landmark", "corridor_width", "fp_density"};
    case SchemeFamily::kGps:
      return {};
    case SchemeFamily::kOther:
      return {"posterior_spread"};
  }
  return {};
}

void extract_features_into(SchemeFamily family, const sim::SensorFrame& frame,
                           const schemes::SchemeOutput& output,
                           const FeatureContext& ctx, FeatureScratch& scratch,
                           std::vector<double>& x) {
  // 19 chars > libstdc++ SSO; avoid a per-epoch heap temporary.
  static const std::string kDistSinceLandmark = "dist_since_landmark";
  x.clear();
  switch (family) {
    case SchemeFamily::kWifiFingerprint:
      x.push_back(density_or_large(ctx.wifi_db, ctx.predicted_location,
                                   scratch));
      x.push_back(top3_distance_sd(ctx.wifi_db, frame.wifi, scratch.wifi,
                                   scratch));
      return;
    case SchemeFamily::kCellFingerprint:
      x.push_back(density_or_large(ctx.cell_db, ctx.predicted_location,
                                   scratch));
      x.push_back(top3_distance_sd(ctx.cell_db, frame.cell, scratch.cell,
                                   scratch));
      return;
    case SchemeFamily::kMotionPdr:
      x.push_back(observable_or(output, kDistSinceLandmark, 0.0));
      x.push_back(corridor_width(ctx));
      return;
    case SchemeFamily::kFusion:
      x.push_back(observable_or(output, kDistSinceLandmark, 0.0));
      x.push_back(corridor_width(ctx));
      x.push_back(density_or_large(ctx.wifi_db, ctx.predicted_location,
                                   scratch));
      return;
    case SchemeFamily::kGps:
      return;
    case SchemeFamily::kOther:
      // Generic fallback for user-integrated schemes: any scheme that
      // reports a posterior provides its spread as a self-assessed
      // uncertainty feature.
      x.push_back(output.posterior.spread());
      return;
  }
}

std::vector<double> extract_features(SchemeFamily family,
                                     const sim::SensorFrame& frame,
                                     const schemes::SchemeOutput& output,
                                     const FeatureContext& ctx) {
  FeatureScratch scratch;
  std::vector<double> x;
  extract_features_into(family, frame, output, ctx, scratch, x);
  return x;
}

std::vector<std::string> candidate_feature_names(SchemeFamily family) {
  std::vector<std::string> names = feature_names(family);
  switch (family) {
    case SchemeFamily::kWifiFingerprint:
    case SchemeFamily::kCellFingerprint:
      names.push_back("num_transmitters");  // found insignificant
      break;
    case SchemeFamily::kMotionPdr:
    case SchemeFamily::kFusion:
      names.push_back("orientation_change_freq");  // found insignificant
      break;
    default:
      break;
  }
  return names;
}

std::vector<double> extract_candidate_features(
    SchemeFamily family, const sim::SensorFrame& frame,
    const schemes::SchemeOutput& output, const FeatureContext& ctx) {
  std::vector<double> x = extract_features(family, frame, output, ctx);
  switch (family) {
    case SchemeFamily::kWifiFingerprint:
      x.push_back(static_cast<double>(frame.wifi.size()));
      break;
    case SchemeFamily::kCellFingerprint:
      x.push_back(static_cast<double>(frame.cell.size()));
      break;
    case SchemeFamily::kMotionPdr:
    case SchemeFamily::kFusion: {
      // Orientation changing frequency: RMS gyro rate over the epoch.
      double s = 0.0;
      for (const sim::ImuSample& i : frame.imu) s += i.gyro_z * i.gyro_z;
      x.push_back(frame.imu.empty()
                      ? 0.0
                      : std::sqrt(s / static_cast<double>(frame.imu.size())));
      break;
    }
    default:
      break;
  }
  return x;
}

}  // namespace uniloc::core
