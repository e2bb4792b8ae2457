#include "schemes/fingerprint_db.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "stats/rng.h"
#include "stats/simd.h"
#include "stats/vecmath.h"

namespace uniloc::schemes {

double rssi_distance(const std::vector<sim::ApReading>& scan,
                     const Fingerprint& fp, double floor_dbm) {
  if (scan.empty() && fp.rssi.empty()) {
    return std::numeric_limits<double>::max();
  }
  double sum2 = 0.0;
  std::size_t shared = 0;
  // Transmitters in the scan.
  for (const sim::ApReading& r : scan) {
    const auto it = fp.rssi.find(r.id);
    const double offline = it != fp.rssi.end() ? it->second : floor_dbm;
    if (it != fp.rssi.end()) ++shared;
    const double d = r.rssi_dbm - offline;
    sum2 += d * d;
  }
  // Transmitters only in the fingerprint.
  for (const auto& [id, offline] : fp.rssi) {
    const bool in_scan =
        std::any_of(scan.begin(), scan.end(),
                    [id = id](const sim::ApReading& r) { return r.id == id; });
    if (!in_scan) {
      const double d = offline - floor_dbm;
      sum2 += d * d;
    }
  }
  if (shared == 0) return std::numeric_limits<double>::max();
  return std::sqrt(sum2);
}

FingerprintDatabase FingerprintDatabase::build(
    const sim::Place& place, const sim::RadioEnvironment& radio, Source source,
    double indoor_spacing_m, double outdoor_spacing_m, std::uint64_t seed) {
  FingerprintDatabase db;
  db.source_ = source;
  stats::Rng rng(stats::hash_combine(seed, 0xF1DB));
  for (const sim::Walkway& w : place.walkways()) {
    for (const sim::PathSegment& seg : w.segments) {
      const double spacing =
          sim::is_indoor(seg.type) ? indoor_spacing_m : outdoor_spacing_m;
      for (double s = seg.start_arclen; s < seg.end_arclen; s += spacing) {
        const geo::Vec2 pos = w.line.point_at(s);
        Fingerprint fp;
        fp.pos = pos;
        fp.indoor = sim::is_indoor(seg.type);
        stats::Rng scan_rng = rng.fork(static_cast<std::uint64_t>(s * 100.0));
        const std::vector<sim::ApReading> scan =
            source == Source::kWifi ? radio.wifi_scan(pos, scan_rng)
                                    : radio.cell_scan(pos, scan_rng);
        for (const sim::ApReading& r : scan) fp.rssi[r.id] = r.rssi_dbm;
        if (!fp.rssi.empty()) db.fps_.push_back(std::move(fp));
      }
    }
  }
  db.rebuild_spatial_index();
  return db;
}

void FingerprintDatabase::rebuild_spatial_index() {
  std::vector<geo::Vec2> positions;
  positions.reserve(fps_.size());
  for (const Fingerprint& fp : fps_) positions.push_back(fp.pos);
  spatial_ = geo::PointIndex(positions, /*cell_size=*/6.0);
}

void FingerprintDatabase::attach_metrics(obs::MetricsRegistry* registry,
                                         const std::string& prefix) {
  if (registry == nullptr) {
    match_us_ = nullptr;
    cache_hits_ = nullptr;
    cache_misses_ = nullptr;
    return;
  }
  match_us_ = &registry->histogram(prefix + ".match_us");
  cache_hits_ = &registry->counter(prefix + ".cache_hits");
  cache_misses_ = &registry->counter(prefix + ".cache_misses");
}

std::vector<Match> FingerprintDatabase::k_nearest(
    const std::vector<sim::ApReading>& scan, std::size_t k) const {
  obs::ScopedTimer timer(match_us_);
  std::vector<Match> matches;
  if (scan.empty() || fps_.empty() || k == 0) return matches;
  matches.reserve(fps_.size());
  for (std::size_t i = 0; i < fps_.size(); ++i) {
    const double d = rssi_distance(scan, fps_[i], floor_dbm());
    if (d < std::numeric_limits<double>::max()) matches.push_back({i, d});
  }
  const std::size_t kk = std::min(k, matches.size());
  std::partial_sort(matches.begin(), matches.begin() + kk, matches.end(),
                    [](const Match& a, const Match& b) {
                      return a.distance < b.distance;
                    });
  matches.resize(kk);
  return matches;
}

std::vector<double> FingerprintDatabase::all_distances(
    const std::vector<sim::ApReading>& scan) const {
  obs::ScopedTimer timer(match_us_);
  std::vector<double> out(fps_.size(), std::numeric_limits<double>::max());
  for (std::size_t i = 0; i < fps_.size(); ++i) {
    out[i] = rssi_distance(scan, fps_[i], floor_dbm());
  }
  return out;
}

// --------------------------------------------------------------- fast path

void FingerprintDatabase::prebuild_likelihood_cache() {
  col_ids_.clear();
  slice_begin_.clear();
  entry_col_.clear();
  entry_d2floor_.clear();
  cell_value_.clear();
  cell_present_.clear();

  // Columns: the distinct transmitter ids across the venue, ascending.
  for (const Fingerprint& fp : fps_) {
    for (const auto& [id, rss] : fp.rssi) col_ids_.push_back(id);
  }
  std::sort(col_ids_.begin(), col_ids_.end());
  col_ids_.erase(std::unique(col_ids_.begin(), col_ids_.end()),
                 col_ids_.end());
  const std::size_t cols = col_ids_.size();

  const double floor = floor_dbm();
  slice_begin_.reserve(fps_.size() + 1);
  cell_value_.resize(fps_.size() * cols, 0.0);
  cell_present_.assign(fps_.size() * cols, 0);
  // Column-major mirrors for the SIMD batch scorer. Pre-substituting the
  // floor for absent cells folds cached_distance's presence branch into
  // plain loads. The masked fp-only pass of score_batch multiplies
  // entry_d2floor_ by a 0.0/1.0 mask, which is only bit-identical to the
  // reference's branchy skip when the terms are finite -- offline RSS
  // levels always are (asserted here; blend_reading invalidates the cache
  // before any non-finite value could enter it).
  colmajor_value_.assign(cols * fps_.size(), floor);
  colmajor_present_.assign(cols * fps_.size(), 0.0);
  for (std::size_t i = 0; i < fps_.size(); ++i) {
    slice_begin_.push_back(static_cast<std::uint32_t>(entry_col_.size()));
    for (const auto& [id, offline] : fps_[i].rssi) {
      assert(std::isfinite(offline));
      const auto it =
          std::lower_bound(col_ids_.begin(), col_ids_.end(), id);
      const int col = static_cast<int>(it - col_ids_.begin());
      entry_col_.push_back(col);
      const double d = offline - floor;
      entry_d2floor_.push_back(d * d);
      cell_value_[i * cols + static_cast<std::size_t>(col)] = offline;
      cell_present_[i * cols + static_cast<std::size_t>(col)] = 1;
      colmajor_value_[static_cast<std::size_t>(col) * fps_.size() + i] =
          offline;
      colmajor_present_[static_cast<std::size_t>(col) * fps_.size() + i] = 1.0;
    }
  }
  slice_begin_.push_back(static_cast<std::uint32_t>(entry_col_.size()));
  cache_ready_ = true;
}

std::size_t FingerprintDatabase::likelihood_cache_bytes() const {
  return col_ids_.capacity() * sizeof(int) +
         slice_begin_.capacity() * sizeof(std::uint32_t) +
         entry_col_.capacity() * sizeof(int) +
         entry_d2floor_.capacity() * sizeof(double) +
         cell_value_.capacity() * sizeof(double) +
         cell_present_.capacity() * sizeof(std::uint8_t) +
         (colmajor_value_.capacity() + colmajor_present_.capacity()) *
             sizeof(double);
}

void FingerprintDatabase::prepare_scan(
    const std::vector<sim::ApReading>& scan, ScanScratch& scratch) const {
  const std::size_t cols = col_ids_.size();
  if (scratch.stamp.size() != cols) {
    scratch.stamp.assign(cols, 0);
    scratch.epoch = 0;
  }
  if (++scratch.epoch == 0) {
    // Epoch counter wrapped: clear the stamps and restart at 1 so stale
    // entries cannot collide with the new epoch.
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0u);
    scratch.epoch = 1;
  }
  // Scan sizes vary epoch to epoch; reserve a generous bound on first use
  // so a later, larger-than-any-before scan cannot break the steady-state
  // zero-allocation contract (tests/test_perf_contracts.cc).
  if (scratch.col.capacity() < scan.size()) {
    scratch.col.reserve(std::max<std::size_t>(scan.size() * 2, 256));
  }
  scratch.col.resize(scan.size());
  for (std::size_t j = 0; j < scan.size(); ++j) {
    const auto it =
        std::lower_bound(col_ids_.begin(), col_ids_.end(), scan[j].id);
    if (it != col_ids_.end() && *it == scan[j].id) {
      const int col = static_cast<int>(it - col_ids_.begin());
      scratch.col[j] = col;
      scratch.stamp[static_cast<std::size_t>(col)] = scratch.epoch;
    } else {
      scratch.col[j] = -1;  // Transmitter unknown to the database.
    }
  }
}

double FingerprintDatabase::cached_distance(
    std::size_t fp_index, const std::vector<sim::ApReading>& scan,
    const ScanScratch& scratch) const {
  // Replays rssi_distance term by term: the scan loop in scan order, then
  // the fingerprint-only loop in ascending-id order (the flattened slice
  // preserves std::map iteration order). No addition is reordered, so the
  // result is bit-identical to rssi_distance (tests/test_differential.cc).
  if (scan.empty() && fps_[fp_index].rssi.empty()) {
    return std::numeric_limits<double>::max();
  }
  const std::size_t cols = col_ids_.size();
  const double* values = cell_value_.data() + fp_index * cols;
  const std::uint8_t* present = cell_present_.data() + fp_index * cols;
  const double floor = floor_dbm();
  double sum2 = 0.0;
  std::size_t shared = 0;
  for (std::size_t j = 0; j < scan.size(); ++j) {
    const int col = scratch.col[j];
    double offline = floor;
    if (col >= 0 && present[col] != 0) {
      offline = values[col];
      ++shared;
    }
    const double d = scan[j].rssi_dbm - offline;
    sum2 += d * d;
  }
  for (std::uint32_t e = slice_begin_[fp_index];
       e < slice_begin_[fp_index + 1]; ++e) {
    if (scratch.stamp[static_cast<std::size_t>(entry_col_[e])] !=
        scratch.epoch) {
      sum2 += entry_d2floor_[e];
    }
  }
  if (shared == 0) return std::numeric_limits<double>::max();
  return std::sqrt(sum2);
}

void FingerprintDatabase::score_batch(
    const std::vector<sim::ApReading>& scan, ScanScratch& scratch) const {
  // One SIMD lane per fingerprint, accumulating that fingerprint's terms
  // in exactly the order cached_distance sums them:
  //   * scan loop, scan order: the j-outer / fingerprint-inner nesting
  //     keeps lane i's additions in scan order; a reading unknown to the
  //     database contributes the same (r - floor)^2 to every lane.
  //   * fp-only loop, slice order: scan-covered entries are skipped by
  //     multiplying with a 0.0/1.0 column mask. 1.0*d2 is exact, and
  //     adding 0.0*d2 == +0.0 is the identity because the running sum is
  //     a sum of squares (never -0.0) -- so the masked adds reproduce the
  //     branchy reference bit for bit (d2 finite; see prebuild).
  // The final lane value is the finished distance: sqrt(sum2), or max()
  // when no transmitter is shared (the reference's sentinel).
  const std::size_t n = fps_.size();
  const std::size_t cols = col_ids_.size();
  if (scratch.lane_sum2.size() != n) {
    scratch.lane_sum2.resize(n);
    scratch.lane_shared.resize(n);
  }
  if (scratch.col_skip.size() != cols) scratch.col_skip.resize(cols);
  double* sum2 = scratch.lane_sum2.data();
  double* shared = scratch.lane_shared.data();
  UNILOC_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    sum2[i] = 0.0;
    shared[i] = 0.0;
  }
  const double floor = floor_dbm();
  for (std::size_t j = 0; j < scan.size(); ++j) {
    const int col = scratch.col[j];
    const double r = scan[j].rssi_dbm;
    if (col < 0) {
      const double d = r - floor;
      const double dd = d * d;
      UNILOC_PRAGMA_SIMD
      for (std::size_t i = 0; i < n; ++i) sum2[i] += dd;
    } else {
      const double* value =
          colmajor_value_.data() + static_cast<std::size_t>(col) * n;
      const double* present =
          colmajor_present_.data() + static_cast<std::size_t>(col) * n;
      UNILOC_PRAGMA_SIMD
      for (std::size_t i = 0; i < n; ++i) {
        const double d = r - value[i];
        sum2[i] += d * d;
        shared[i] += present[i];
      }
    }
  }
  double* skip = scratch.col_skip.data();
  for (std::size_t c = 0; c < cols; ++c) {
    skip[c] = scratch.stamp[c] != scratch.epoch ? 1.0 : 0.0;
  }
  const std::uint32_t* sb = slice_begin_.data();
  const int* ecol = entry_col_.data();
  const double* ed2 = entry_d2floor_.data();
  for (std::size_t i = 0; i < n; ++i) {
    double s = sum2[i];
    for (std::uint32_t e = sb[i]; e < sb[i + 1]; ++e) {
      s += skip[static_cast<std::size_t>(ecol[e])] * ed2[e];
    }
    sum2[i] = s;
  }
  UNILOC_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::sqrt(sum2[i]);
    sum2[i] = shared[i] > 0.0 ? d : std::numeric_limits<double>::max();
  }
}

void FingerprintDatabase::build_candidates(
    const std::vector<sim::ApReading>& scan, ScanScratch& scratch,
    std::vector<Match>& out) const {
  out.reserve(fps_.size());
  if (cache_ready_) {
    ++scratch.cache_hits;
    if (cache_hits_ != nullptr) cache_hits_->inc();
    prepare_scan(scan, scratch);
#if !defined(UNILOC_NO_SIMD)
    if (stats::simd_enabled()) {
      score_batch(scan, scratch);
      const double* dist = scratch.lane_sum2.data();
      for (std::size_t i = 0; i < fps_.size(); ++i) {
        if (dist[i] < std::numeric_limits<double>::max()) {
          out.push_back({i, dist[i]});
        }
      }
      return;
    }
#endif
    for (std::size_t i = 0; i < fps_.size(); ++i) {
      const double d = cached_distance(i, scan, scratch);
      if (d < std::numeric_limits<double>::max()) out.push_back({i, d});
    }
  } else {
    ++scratch.cache_misses;
    if (cache_misses_ != nullptr) cache_misses_->inc();
    for (std::size_t i = 0; i < fps_.size(); ++i) {
      const double d = rssi_distance(scan, fps_[i], floor_dbm());
      if (d < std::numeric_limits<double>::max()) out.push_back({i, d});
    }
  }
}

namespace {

/// The selection step shared by every k-nearest entry point. partial_sort
/// is deterministic for a fixed input sequence / comparator / bound, which
/// is what lets k_nearest_memo serve any k from one candidate array.
void keep_k_nearest(std::vector<Match>& out, std::size_t k) {
  const std::size_t kk = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + kk, out.end(),
                    [](const Match& a, const Match& b) {
                      return a.distance < b.distance;
                    });
  out.resize(kk);
}

}  // namespace

void FingerprintDatabase::k_nearest_into(
    const std::vector<sim::ApReading>& scan, std::size_t k,
    ScanScratch& scratch, std::vector<Match>& out) const {
  obs::ScopedTimer timer(match_us_);
  out.clear();
  if (scan.empty() || fps_.empty() || k == 0) return;
  build_candidates(scan, scratch, out);
  keep_k_nearest(out, k);
}

void FingerprintDatabase::k_nearest_memo(
    const std::vector<sim::ApReading>& scan, std::size_t k,
    std::uint64_t epoch_tag, ScanMemo& memo, std::vector<Match>& out) const {
  obs::ScopedTimer timer(match_us_);
  out.clear();
  if (scan.empty() || fps_.empty() || k == 0) return;
  // The scan identity check (data pointer + size) guards call sites that
  // pass a different scan within one epoch -- e.g. a device-calibrated
  // copy -- from being served someone else's distances.
  if (memo.db != this || memo.tag != epoch_tag ||
      memo.scan_data != static_cast<const void*>(scan.data()) ||
      memo.scan_size != scan.size()) {
    memo.db = this;
    memo.tag = epoch_tag;
    memo.scan_data = scan.data();
    memo.scan_size = scan.size();
    memo.all.clear();
    build_candidates(scan, memo.scratch, memo.all);
  }
  if (out.capacity() < fps_.size()) out.reserve(fps_.size());
  out.assign(memo.all.begin(), memo.all.end());
  keep_k_nearest(out, k);
}

void FingerprintDatabase::all_distances_into(
    const std::vector<sim::ApReading>& scan, ScanScratch& scratch,
    std::vector<double>& out) const {
  obs::ScopedTimer timer(match_us_);
  out.assign(fps_.size(), std::numeric_limits<double>::max());
  if (cache_ready_) {
    ++scratch.cache_hits;
    if (cache_hits_ != nullptr) cache_hits_->inc();
    prepare_scan(scan, scratch);
#if !defined(UNILOC_NO_SIMD)
    if (stats::simd_enabled()) {
      score_batch(scan, scratch);
      std::copy(scratch.lane_sum2.begin(), scratch.lane_sum2.end(),
                out.begin());
      return;
    }
#endif
    for (std::size_t i = 0; i < fps_.size(); ++i) {
      out[i] = cached_distance(i, scan, scratch);
    }
  } else {
    ++scratch.cache_misses;
    if (cache_misses_ != nullptr) cache_misses_->inc();
    for (std::size_t i = 0; i < fps_.size(); ++i) {
      out[i] = rssi_distance(scan, fps_[i], floor_dbm());
    }
  }
}

double FingerprintDatabase::local_density(geo::Vec2 pos, std::size_t k) const {
  std::vector<std::size_t> nn;
  return local_density(pos, k, nn);
}

double FingerprintDatabase::local_density(
    geo::Vec2 pos, std::size_t k, std::vector<std::size_t>& knn_buf) const {
  if (fps_.empty()) return std::numeric_limits<double>::max();
  spatial_.k_nearest_into(pos, k + 1, knn_buf);
  // Skip the closest (it may be the query location itself); average the
  // next k inter-fingerprint gaps.
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 1; i < knn_buf.size(); ++i) {
    sum += geo::distance(fps_[knn_buf[i]].pos, pos);
    ++count;
  }
  if (count == 0) return geo::distance(fps_[knn_buf[0]].pos, pos);
  return sum / static_cast<double>(count);
}

void FingerprintDatabase::blend_reading(std::size_t index, int transmitter_id,
                                        double rssi_dbm, double alpha) {
  assert(index < fps_.size());
  auto [it, inserted] = fps_[index].rssi.try_emplace(transmitter_id, rssi_dbm);
  if (!inserted) {
    it->second = alpha * rssi_dbm + (1.0 - alpha) * it->second;
  }
  // The precomputed tables no longer match the fingerprints; cached
  // queries fall back to the exact path until the next prebuild.
  invalidate_likelihood_cache();
}

FingerprintDatabase FingerprintDatabase::downsampled(std::size_t keep_every,
                                                     std::uint64_t seed) const {
  FingerprintDatabase db;
  db.source_ = source_;
  if (keep_every <= 1) {
    db.fps_ = fps_;
    db.rebuild_spatial_index();
    return db;
  }
  const std::size_t phase = stats::splitmix64(seed) % keep_every;
  for (std::size_t i = 0; i < fps_.size(); ++i) {
    if (i % keep_every == phase) db.fps_.push_back(fps_[i]);
  }
  db.rebuild_spatial_index();
  return db;
}

std::size_t FingerprintDatabase::nearest_spatial(geo::Vec2 pos) const {
  assert(!fps_.empty());
  return spatial_.nearest(pos);
}

}  // namespace uniloc::schemes
