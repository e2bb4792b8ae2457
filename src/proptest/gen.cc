#include "proptest/gen.h"

#include "stats/rng.h"

namespace uniloc::proptest {

CaseSpec generate_case(std::uint64_t engine_seed, std::size_t index) {
  const std::uint64_t case_seed = stats::hash_combine(engine_seed, index);
  stats::Rng rng(case_seed);

  CaseSpec s;
  s.case_seed = case_seed;

  // World: a small venue (1-3 routes, 2-6 legs) so a deployment builds
  // in milliseconds and a shrunk case is already near-minimal.
  s.place.seed = stats::hash_combine(case_seed, 1);
  s.place.walkways = rng.uniform_int(1, 3);
  s.place.legs_per_walkway = rng.uniform_int(2, 6);
  s.place.leg_length_m = rng.uniform(10.0, 28.0);
  s.place.venue_mix = rng.uniform_int(0, 3);
  s.place.cell_towers = rng.uniform_int(0, 4);
  s.deploy_seed = stats::hash_combine(case_seed, 2);

  // Walkers: tiny fleets, short walks.
  s.walkers = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  s.epochs = static_cast<std::uint32_t>(rng.uniform_int(4, 16));
  s.burst = rng.chance(0.25) ? 2 : 1;
  s.load_seed = stats::hash_combine(case_seed, 3);
  s.gait.step_length_m = rng.uniform(0.5, 0.9);
  s.gait.step_period_s = rng.uniform(0.4, 0.8);
  s.gait.trembling = rng.uniform(0.0, 0.8);

  // Wire: rounds ~= epochs / burst (what the blackout/crash windows key
  // on); the +2 covers the hello and bye rounds.
  fault::PlanLimits limits;
  limits.rounds = s.epochs / s.burst + 2;
  s.faults = fault::generate_plan_spec(stats::hash_combine(case_seed, 4),
                                       limits);
  s.crash_restore = !s.faults.crash_rounds.empty();
  // Half the crashing cases also run the I9 delta-chain pass: same crash
  // schedule, but restoring through keyframe+delta collapse.
  s.delta_chain = s.crash_restore && rng.chance(0.5);

  // Service shape: a quarter of the cases run a workers-N differential
  // pass, and a quarter the I8 scalar differential pass.
  s.workers = rng.chance(0.25)
                  ? static_cast<std::uint32_t>(rng.uniform_int(1, 4))
                  : 0;
  s.batch = rng.chance(0.25);
  return s;
}

}  // namespace uniloc::proptest
