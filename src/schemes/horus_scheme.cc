#include "schemes/horus_scheme.h"

#include <algorithm>
#include <cmath>

namespace uniloc::schemes {

HorusScheme::HorusScheme(const FingerprintDatabase* db, Options opts)
    : db_(db), opts_(opts) {}

void HorusScheme::reset(const StartCondition&) {}

double HorusScheme::log_likelihood(const std::vector<sim::ApReading>& scan,
                                   const Fingerprint& fp) const {
  const double inv_two_sig2 =
      1.0 / (2.0 * opts_.rssi_sigma_db * opts_.rssi_sigma_db);
  const double miss = opts_.missing_penalty * opts_.missing_penalty / 2.0;
  double ll = 0.0;
  std::size_t shared = 0;
  for (const sim::ApReading& r : scan) {
    const auto it = fp.rssi.find(r.id);
    if (it == fp.rssi.end()) {
      ll -= miss;  // AP heard online but absent offline
      continue;
    }
    ++shared;
    const double d = r.rssi_dbm - it->second;
    ll -= d * d * inv_two_sig2;
  }
  for (const auto& [id, rssi] : fp.rssi) {
    (void)rssi;
    const bool in_scan = std::any_of(
        scan.begin(), scan.end(),
        [id = id](const sim::ApReading& r) { return r.id == id; });
    if (!in_scan) ll -= miss;  // AP expected offline but silent online
  }
  if (shared == 0) return -1e18;
  return ll;
}

void HorusScheme::update_into(const sim::SensorFrame& frame,
                              SchemeOutput& out) {
  out.available = false;
  const std::vector<sim::ApReading>& scan =
      db_->source() == FingerprintDatabase::Source::kWifi ? frame.wifi
                                                          : frame.cell;
  if (scan.size() < opts_.min_transmitters || db_->empty()) return;

  // Log-likelihood per fingerprint; keep the top-K as posterior support.
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(db_->size());
  for (std::size_t i = 0; i < db_->size(); ++i) {
    const double ll = log_likelihood(scan, db_->fingerprints()[i]);
    if (ll > -1e17) scored.emplace_back(ll, i);
  }
  if (scored.empty()) return;
  const std::size_t k = std::min(opts_.top_k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), std::greater<>());

  out.available = true;
  // MAP fingerprint is the point estimate (as in Horus).
  out.estimate = db_->fingerprints()[scored[0].second].pos;
  const double best_ll = scored[0].first;
  out.posterior.support.clear();
  for (std::size_t i = 0; i < k; ++i) {
    out.posterior.support.push_back(
        {db_->fingerprints()[scored[i].second].pos,
         std::exp(scored[i].first - best_ll)});
  }
  out.posterior.normalize();
  out.observables["num_transmitters"] = static_cast<double>(scan.size());
  out.observables["map_log_likelihood"] = best_ll;
}

}  // namespace uniloc::schemes
