// Shared per-epoch state for the epoch pipeline.
//
// Several stages of one epoch query the same fingerprint database with the
// same sensor scan and differ only in how many candidates they keep: the
// WiFi scheme takes the top 15, the fusion scheme the top 15, the error
// model's rssi_dist_sd feature the top 3. The EpochContext lets them share
// one candidate evaluation per (epoch, database) -- see
// FingerprintDatabase::k_nearest_memo for the bit-exactness argument.
//
// One EpochContext lives inside each core::EpochScratch -- in src/svc,
// the epoch arena of the worker thread serving the epoch -- and is
// threaded to the schemes by Uniloc::update_fast through
// LocalizationScheme::set_epoch_context. A scheme called with no context
// installed computes every query unmemoized, from private buffers; the
// kernel oracles in tests/test_differential.cc pin that both give the
// same output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "filter/particle_filter.h"
#include "geo/vec2.h"
#include "schemes/fingerprint_db.h"

namespace uniloc::schemes {

/// Working buffers of the schemes' update_into kernels. Each buffer is
/// rewritten before it is read within one update_into call, so the
/// schemes of an epoch -- and every session an arena serves -- take turns
/// with one set. update_into with no context installed builds a private
/// set per call instead.
struct SchemeScratch {
  filter::KernelScratch pf;       ///< Particle-filter predict/resample.
  std::vector<geo::Vec2> before;  ///< PDR pre-step positions (wall test).
  std::vector<Match> matches;     ///< Fingerprint top-k, fusion candidates.
  std::vector<double> top3;       ///< Fingerprint top-3 distances.
  std::vector<double> rssi_w;     ///< Fusion candidate RSSI weights.
  std::vector<double> like;       ///< Per-particle likelihoods (the map
                                  ///< constraint and fusion kernels).

  std::size_t bytes() const {
    return pf.bytes() + before.capacity() * sizeof(geo::Vec2) +
           matches.capacity() * sizeof(Match) +
           (top3.capacity() + rssi_w.capacity() + like.capacity()) *
               sizeof(double);
  }
};

struct EpochContext {
  /// Bumped once per update_fast epoch; memos from earlier epochs (or an
  /// earlier walk -- reset() does not clear the context) are invalid.
  std::uint64_t tag{0};

  /// One memo per distinct database queried during an epoch. The standard
  /// ensemble touches two (WiFi + cellular); slots beyond that cover
  /// user-integrated schemes with their own databases.
  static constexpr std::size_t kMemoSlots = 4;
  ScanMemo memos[kMemoSlots];

  /// Scheme kernel buffers (see SchemeScratch).
  SchemeScratch buffers;

  /// The memo slot owned by `db`. On first sight in this epoch `db`
  /// claims a slot no other database has used this epoch -- an arena
  /// outlives deployments, so slots of earlier epochs are recycled rather
  /// than held by databases that may never come back. Returns nullptr
  /// only when more distinct databases than slots are queried within one
  /// epoch; callers then fall back to their private unmemoized scratch.
  ScanMemo* memo_for(const FingerprintDatabase* db) {
    ScanMemo* spare = nullptr;
    for (ScanMemo& m : memos) {
      if (m.db == db) return &m;
      if (spare == nullptr && m.tag != tag) spare = &m;
    }
    if (spare != nullptr) spare->db = db;
    return spare;
  }

  std::uint64_t cache_hits() const {
    std::uint64_t total = 0;
    for (const ScanMemo& m : memos) total += m.scratch.cache_hits;
    return total;
  }
  std::uint64_t cache_misses() const {
    std::uint64_t total = 0;
    for (const ScanMemo& m : memos) total += m.scratch.cache_misses;
    return total;
  }

  /// Heap capacity held by the memos and the kernel buffers
  /// (perf.scratch_bytes accounting).
  std::size_t bytes() const {
    std::size_t b = buffers.bytes();
    for (const ScanMemo& m : memos) {
      b += m.all.capacity() * sizeof(Match);
      b += m.scratch.col.capacity() * sizeof(int);
      b += m.scratch.stamp.capacity() * sizeof(std::uint32_t);
      b += (m.scratch.lane_sum2.capacity() + m.scratch.lane_shared.capacity() +
            m.scratch.col_skip.capacity()) *
           sizeof(double);
    }
    return b;
  }
};

}  // namespace uniloc::schemes
