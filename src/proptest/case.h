// CaseSpec: one generated chaos scenario, in full.
//
// A case is everything the oracle needs to rebuild a world and rerun a
// failure: the venue recipe, the deployment seed, the walker fleet and
// its gait, the fault schedule, and the service shape (workers, the
// scalar-kernel pass, crash/restore). It serializes to ONE line of
// JSON -- the reproducer format the engine persists into the corpus and
// prints as `UNILOC_REPRO ...` on any violation -- and parses back
// bit-equivalently, so a failure found on a CI box replays anywhere.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fault/generate.h"
#include "sim/builders.h"
#include "sim/imu_sim.h"

namespace uniloc::proptest {

struct CaseSpec {
  /// The seed this case was expanded from; identifies it in repro lines.
  std::uint64_t case_seed{0};

  // --- world --------------------------------------------------------
  sim::RandomPlaceSpec place;
  std::uint64_t deploy_seed{42};

  // --- walkers ------------------------------------------------------
  std::uint32_t walkers{2};
  std::uint32_t epochs{10};  ///< Max epochs per walker.
  std::uint32_t burst{1};    ///< Epochs submitted per round per walker.
  std::uint64_t load_seed{2024};
  sim::GaitProfile gait{};

  // --- wire ---------------------------------------------------------
  fault::PlanSpec faults;

  // --- service shape ------------------------------------------------
  /// > 0 adds a workers-N pass that must be bit-identical to workers-0.
  std::uint32_t workers{0};
  /// Adds a pass with the SIMD kernels forced off that must be
  /// bit-identical to the base pass (invariant I8: scalar == vector).
  bool batch{false};
  /// Run a crash/restore pass at faults.crash_rounds that must be
  /// bit-identical to the uninterrupted run.
  bool crash_restore{false};
  /// Run a delta-chain crash pass (invariant I9): the server checkpoints
  /// via keyframe+delta waves and every scripted crash restores through
  /// collapse_chain instead of a monolithic snapshot. Only meaningful
  /// when faults.crash_rounds is non-empty.
  bool delta_chain{false};

  bool operator==(const CaseSpec&) const = default;
};

/// One-line JSON, deterministic member order (byte-stable per spec).
std::string to_json(const CaseSpec& spec);

/// Inverse of to_json. nullopt on malformed input (bad syntax, missing
/// or mistyped members) -- a hostile corpus line must never crash.
/// Keys of retired fields (`shards`, `migration_churn`, `churn`) are
/// ignored, so older corpus lines still replay.
std::optional<CaseSpec> from_json(const std::string& line);

/// The greppable one-line failure report:
///   UNILOC_REPRO seed=<case_seed> cases=<cases_in_run> spec=<json>
std::string repro_line(const CaseSpec& spec, std::size_t cases_in_run);

}  // namespace uniloc::proptest
