// Automatic shrinking: given a failing CaseSpec and a predicate that
// re-runs it, find a (locally) minimal spec that still fails.
//
// The shrinker never needs to know WHY a case fails -- it only asks
// "does this smaller candidate still fail?". Passes, repeated to a
// fixpoint under an evaluation budget:
//
//   1. scalar minimization -- epochs, walkers, burst, venue size
//      (walkways / legs / leg length / towers), workers --
//      floor-first, then binary search between the floor and the
//      current value (greedy: any failing probe becomes the new best);
//   2. list minimization -- crash rounds, blackout windows: try empty,
//      then dropping each element;
//   3. field zeroing -- fault rates, link delays, the scalar and
//      delta-chain passes, gait back to the default profile.
//
// Every accepted candidate strictly simplifies the spec, so the loop
// terminates; the budget caps total oracle re-runs (each one is an
// end-to-end simulation, so shrinking cost dominates discovery cost).
#pragma once

#include <cstdint>
#include <functional>

#include "proptest/case.h"

namespace uniloc::proptest {

/// Re-runs a candidate spec; true = the failure reproduces. (Typically
/// wraps the oracle: `[&](const CaseSpec& s) { return !run_case(s,
/// models).ok(); }`. Tests inject synthetic bugs here.)
using FailFn = std::function<bool(const CaseSpec&)>;

struct ShrinkStats {
  std::size_t attempts{0};  ///< Oracle evaluations spent.
  std::size_t accepted{0};  ///< Candidates that still failed (kept).
};

/// Shrink `failing` (which must fail under `still_fails`) to a locally
/// minimal failing spec. At most `budget` evaluations of `still_fails`.
CaseSpec shrink_case(const CaseSpec& failing, const FailFn& still_fails,
                     std::size_t budget = 160, ShrinkStats* stats = nullptr);

}  // namespace uniloc::proptest
