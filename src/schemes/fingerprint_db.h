// Offline RSSI fingerprint database (RADAR-style).
//
// Fingerprints are collected along the walkways of a place on a fixed
// spacing (the paper: 1-3 m indoors, ~12 m in open spaces, one sample per
// audible AP). The database answers:
//   * nearest / k-nearest fingerprints in RSSI space (the matching core of
//     RADAR [1] and the cellular scheme [22]),
//   * local fingerprint spatial density (the beta1 error-model feature),
//   * per-fingerprint RSSI distances for particle weighting (Travi-Navi).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geo/spatial_index.h"
#include "geo/vec2.h"
#include "sim/place.h"
#include "sim/radio.h"

namespace uniloc::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace uniloc::obs

namespace uniloc::schemes {

struct Fingerprint {
  geo::Vec2 pos;
  std::map<int, double> rssi;  ///< AP/tower id -> RSSI (dBm).
  bool indoor{true};
};

/// RSSI distance between an online scan and an offline fingerprint:
/// Euclidean over the union of transmitters, with missing readings imputed
/// at `floor_dbm`. Returns a large value when nothing is shared.
double rssi_distance(const std::vector<sim::ApReading>& scan,
                     const Fingerprint& fp, double floor_dbm = -95.0);

struct Match {
  std::size_t index{0};   ///< Fingerprint index.
  double distance{0.0};   ///< RSSI distance.
};

/// Caller-owned working state for the cached matching fast path
/// (k_nearest_into / all_distances_into). Never used by two threads at
/// once: the database itself stays read-only during queries, so
/// concurrent sessions share one immutable cache and keep their mutable
/// state here -- in the epoch arena of the thread serving them. One
/// scratch may serve several databases in turn. All buffers reach steady
/// capacity after the first query against the largest database they
/// serve (zero allocations thereafter).
struct ScanScratch {
  std::vector<int> col;             ///< Per scan reading: AP column or -1.
  std::vector<std::uint32_t> stamp; ///< Per column: epoch of last sighting.
  std::uint32_t epoch{0};           ///< Current scan epoch for `stamp`.
  std::uint64_t cache_hits{0};      ///< Queries answered from the cache.
  std::uint64_t cache_misses{0};    ///< Queries that fell back to exact.
  // SIMD batch-scoring lanes (score_batch): per-fingerprint running sum /
  // shared count, and the per-column skip mask (1.0 when the column is NOT
  // in the current scan). Sized on first cached query, reused thereafter.
  std::vector<double> lane_sum2;
  std::vector<double> lane_shared;
  std::vector<double> col_skip;
};

class FingerprintDatabase;

/// One epoch's memoized candidate evaluation against one database
/// (k_nearest_memo). Several pipeline stages query the same database with
/// the same scan and differ only in k; the memo holds the full unsorted
/// candidate array so the evaluation runs once per (epoch, database) and
/// every k is served from it. Owned by the caller like ScanScratch (the
/// epoch arena's EpochContext holds them), never shared across threads.
struct ScanMemo {
  const FingerprintDatabase* db{nullptr};  ///< Database `all` was built on.
  std::uint64_t tag{0};                    ///< Epoch tag `all` is valid for.
  const void* scan_data{nullptr};          ///< Identity of the memoized scan.
  std::size_t scan_size{0};
  std::vector<Match> all;                  ///< Candidates in fp-index order.
  ScanScratch scratch;                     ///< Workspace for the rebuild.
};

class FingerprintDatabase {
 public:
  enum class Source { kWifi, kCellular };

  FingerprintDatabase() = default;

  /// Collect fingerprints along every walkway of `place`:
  /// indoor stretches every `indoor_spacing_m`, outdoor stretches every
  /// `outdoor_spacing_m`. One scan (single sample per AP, matching the
  /// paper's collection protocol) is stored per point.
  static FingerprintDatabase build(const sim::Place& place,
                                   const sim::RadioEnvironment& radio,
                                   Source source, double indoor_spacing_m,
                                   double outdoor_spacing_m,
                                   std::uint64_t seed);

  const std::vector<Fingerprint>& fingerprints() const { return fps_; }
  bool empty() const { return fps_.empty(); }
  std::size_t size() const { return fps_.size(); }
  Source source() const { return source_; }

  /// Imputation level for transmitters missing from a scan/fingerprint:
  /// just below the radio's audibility threshold (-95 dBm WiFi, -115 dBm
  /// cellular -- cellular signals live far below WiFi levels).
  double floor_dbm() const {
    return source_ == Source::kWifi ? -95.0 : -115.0;
  }

  /// k fingerprints with the smallest RSSI distance to `scan`
  /// (ascending). Empty if the database or the scan is empty.
  std::vector<Match> k_nearest(const std::vector<sim::ApReading>& scan,
                               std::size_t k) const;

  /// RSSI distance from `scan` to every fingerprint (index-aligned).
  std::vector<double> all_distances(
      const std::vector<sim::ApReading>& scan) const;

  // ------------------------------------------------------------ fast path
  //
  // The cached variants answer the same queries as k_nearest /
  // all_distances bit-for-bit (tests/test_differential.cc): the per-scan
  // and per-fingerprint summation orders of rssi_distance are replicated
  // exactly over precomputed tables, so no floating-point addition is
  // reordered. When the cache is stale (never built, or invalidated by
  // blend_reading) they fall back to the exact reference computation and
  // count a cache miss.

  /// Precompute the flattened likelihood tables: per-fingerprint sorted
  /// (AP, RSS) slices, the AP-id -> column map, the dense per-cell
  /// expected-RSS table and the (offline - floor)^2 terms. Call once at
  /// deployment warmup (alongside Place::prebuild_wall_index); NOT
  /// thread-safe against concurrent queries.
  void prebuild_likelihood_cache();

  /// True when cached queries are served from the tables.
  bool likelihood_cache_ready() const { return cache_ready_; }

  /// Bytes held by the precomputed likelihood tables.
  std::size_t likelihood_cache_bytes() const;

  /// k_nearest into a caller-owned result buffer (cleared first); uses
  /// the likelihood cache when ready.
  void k_nearest_into(const std::vector<sim::ApReading>& scan, std::size_t k,
                      ScanScratch& scratch, std::vector<Match>& out) const;

  /// k_nearest_into, memoized per epoch: when `memo` already holds this
  /// epoch's candidate evaluation for this (database, scan), no RSSI
  /// distance is recomputed -- the query copies the memo and runs the
  /// same partial sort the unmemoized path runs. Bit-identical to
  /// k_nearest_into because std::partial_sort is deterministic for a
  /// given input sequence, comparator and bound, and the memoized input
  /// sequence is exactly the one k_nearest_into would have built.
  void k_nearest_memo(const std::vector<sim::ApReading>& scan, std::size_t k,
                      std::uint64_t epoch_tag, ScanMemo& memo,
                      std::vector<Match>& out) const;

  /// all_distances into a caller-owned buffer (resized to size()).
  void all_distances_into(const std::vector<sim::ApReading>& scan,
                          ScanScratch& scratch,
                          std::vector<double>& out) const;

  /// beta1 feature: mean distance to the `k` spatially nearest
  /// fingerprints around `pos` -- large when coverage is sparse.
  double local_density(geo::Vec2 pos, std::size_t k = 4) const;

  /// local_density with a caller-owned k-nearest buffer (fast path; same
  /// value, no per-query allocation once `knn_buf` has capacity).
  double local_density(geo::Vec2 pos, std::size_t k,
                       std::vector<std::size_t>& knn_buf) const;

  /// Index of the fingerprint spatially closest to `pos`.
  std::size_t nearest_spatial(geo::Vec2 pos) const;

  /// Blend an observed reading into fingerprint `index` with an
  /// exponential moving average (new = alpha*obs + (1-alpha)*old); creates
  /// the transmitter entry if absent. Crowdsourced maintenance uses this
  /// to keep the offline database fresh (paper Sec. III-B assumption).
  void blend_reading(std::size_t index, int transmitter_id, double rssi_dbm,
                     double alpha);

  /// Keep every `keep_every`-th fingerprint (with a seed-derived phase).
  /// The paper trains the density feature by downsampling the fine-grained
  /// database to coarser spacings (Sec. III-B).
  FingerprintDatabase downsampled(std::size_t keep_every,
                                  std::uint64_t seed = 0) const;

  /// Route RSSI-matching latencies (k_nearest / all_distances) into the
  /// `<prefix>.match_us` histogram of `registry`, and cached-query
  /// outcomes into `<prefix>.cache_hits` / `<prefix>.cache_misses`.
  /// Null detaches. Single-threaded use only (bench/CLI); concurrent
  /// sessions count hits in their own ScanScratch instead.
  void attach_metrics(obs::MetricsRegistry* registry,
                      const std::string& prefix);

 private:
  void rebuild_spatial_index();
  void invalidate_likelihood_cache() { cache_ready_ = false; }
  /// Resolve scan AP ids to columns and stamp column membership for this
  /// scan epoch (O(1) membership tests in the per-fingerprint loop).
  void prepare_scan(const std::vector<sim::ApReading>& scan,
                    ScanScratch& scratch) const;
  double cached_distance(std::size_t fp_index,
                         const std::vector<sim::ApReading>& scan,
                         const ScanScratch& scratch) const;
  /// Vector variant of the cached query: scores every fingerprint at once,
  /// one SIMD lane per fingerprint, leaving the final distances in
  /// scratch.lane_sum2. Bit-identical to looping cached_distance (see the
  /// implementation notes); requires prepare_scan to have run for this
  /// scan and the cache to be ready.
  void score_batch(const std::vector<sim::ApReading>& scan,
                   ScanScratch& scratch) const;
  /// The shared candidate loop of k_nearest_into / k_nearest_memo: every
  /// fingerprint's distance to `scan` (cache or exact), appended to `out`
  /// in fingerprint-index order, unsorted.
  void build_candidates(const std::vector<sim::ApReading>& scan,
                        ScanScratch& scratch, std::vector<Match>& out) const;

  std::vector<Fingerprint> fps_;
  Source source_{Source::kWifi};
  geo::PointIndex spatial_;  ///< Bucket index over fingerprint positions.

  // Likelihood cache (prebuild_likelihood_cache). Columns are distinct AP
  // ids in ascending order; per-fingerprint entries are flattened slices
  // in ascending-id order (== std::map iteration order, so the fp-only
  // summation of rssi_distance replays identically).
  bool cache_ready_{false};
  std::vector<int> col_ids_;               ///< Column -> AP id (sorted).
  std::vector<std::uint32_t> slice_begin_; ///< Fp -> first entry (size()+1).
  std::vector<int> entry_col_;             ///< Entry -> column.
  std::vector<double> entry_d2floor_;      ///< Entry -> (rss - floor)^2.
  std::vector<double> cell_value_;         ///< Dense fp x column RSS table.
  std::vector<std::uint8_t> cell_present_; ///< Dense fp x column presence.
  // Column-major mirrors for score_batch: per (column, fingerprint) the
  // effective offline level (fingerprint RSS, or the floor when absent --
  // the branch of cached_distance pre-substituted) and the presence flag
  // as a 0.0/1.0 double so the shared count accumulates in vector lanes.
  std::vector<double> colmajor_value_;
  std::vector<double> colmajor_present_;

  obs::Histogram* match_us_{nullptr};
  obs::Counter* cache_hits_{nullptr};
  obs::Counter* cache_misses_{nullptr};
};

}  // namespace uniloc::schemes
