// Epoch arena for the zero-allocation epoch pipeline.
//
// Uniloc::update_fast threads one EpochScratch through every stage of the
// epoch pipeline (scheme outputs, scheme and particle-filter kernels,
// error-model features, BMA weights) so that, after a warmup epoch has
// grown every buffer to its steady capacity, an epoch performs no heap
// allocation at all (tests/test_perf_contracts.cc). Nothing in it carries
// from one epoch to the next, so one arena serves any number of Uniloc
// instances in turn. Lifetime rules are documented in DESIGN.md section
// 11; the short version:
//
//   * In src/svc each worker thread owns one EpochScratch and every
//     session it serves reuses it; a walk (core::run_walk) owns its own.
//     The decision update_fast returns is stored inside the scratch and
//     stays valid only until the next update_fast on that scratch -- on
//     that thread, whichever session it serves.
//   * Never use one scratch from two threads at once: the ScanScratch
//     members carry mutable per-query state (and the cache hit/miss
//     counters are plain integers, not atomics).
//   * reset() is not required between epochs, walks or sessions -- every
//     field is (re)written each epoch.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/features.h"
#include "core/uniloc.h"
#include "schemes/epoch_context.h"

namespace uniloc::core {

struct EpochScratch {
  /// The decision under construction; update_fast returns a reference to
  /// this field. Valid until the next update_fast call on this scratch,
  /// whichever Uniloc makes it.
  EpochDecision decision;

  // Stage buffers (capacities persist across epochs).
  std::vector<stats::Gaussian> available_predictions;
  std::vector<double> sharpened;
  std::vector<double> features;
  FeatureScratch feature_scratch;

  /// Shared per-epoch state: one candidate evaluation per (epoch,
  /// database), served to every scheme and feature that queries the same
  /// scan, and the schemes' kernel buffers (schemes/epoch_context.h).
  /// update_fast installs it into the schemes for the epoch and detaches
  /// it afterwards, so the same no-sharing rule as the rest of the
  /// scratch applies.
  schemes::EpochContext scheme_ctx;

  /// Likelihood-cache outcomes of the queries this scratch carried: the
  /// feature stage's private scratches plus the shared epoch memos (the
  /// schemes' unmemoized queries are counted in the schemes; see
  /// LocalizationScheme::cache_hits).
  std::uint64_t cache_hits() const {
    return feature_scratch.wifi.cache_hits + feature_scratch.cell.cache_hits +
           scheme_ctx.cache_hits();
  }
  std::uint64_t cache_misses() const {
    return feature_scratch.wifi.cache_misses +
           feature_scratch.cell.cache_misses + scheme_ctx.cache_misses();
  }

  /// Approximate bytes of heap capacity held (and therefore reused) by
  /// the arena -- exported as the perf.scratch_bytes gauge.
  std::size_t bytes() const {
    std::size_t b = 0;
    b += decision.outputs.capacity() * sizeof(schemes::SchemeOutput);
    for (const schemes::SchemeOutput& o : decision.outputs) {
      b += o.posterior.support.capacity() * sizeof(schemes::WeightedPoint);
    }
    b += decision.predicted_error.capacity() * sizeof(stats::Gaussian);
    b += decision.confidence.capacity() * sizeof(double);
    b += decision.weight.capacity() * sizeof(double);
    b += available_predictions.capacity() * sizeof(stats::Gaussian);
    b += sharpened.capacity() * sizeof(double);
    b += features.capacity() * sizeof(double);
    b += feature_scratch.matches.capacity() * sizeof(schemes::Match);
    b += feature_scratch.top3.capacity() * sizeof(double);
    b += feature_scratch.knn.capacity() * sizeof(std::size_t);
    b += feature_scratch.wifi.col.capacity() * sizeof(int);
    b += feature_scratch.wifi.stamp.capacity() * sizeof(std::uint32_t);
    b += feature_scratch.cell.col.capacity() * sizeof(int);
    b += feature_scratch.cell.stamp.capacity() * sizeof(std::uint32_t);
    b += scheme_ctx.bytes();
    return b;
  }
};

}  // namespace uniloc::core
