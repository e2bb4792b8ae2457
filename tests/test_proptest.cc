// The property-test engine's own suite: generator determinism, the
// reproducer codec, shrinking against injected bugs (the end-to-end
// acceptance: a violation shrinks to a minimal spec, is persisted, and
// replays green once the bug is gone), and the real-oracle sweeps that
// ARE the chaos harness -- generated venues, gaits, fault schedules,
// crash points and delta chains, checked against invariants I0-I6, I8
// and I9 -- and the I0 checker of the paper's Eq. 2-5 and duty-cycle
// arithmetic.
//
// Case counts scale with UNILOC_PROPTEST_CASES (scripts/check.sh: 64
// quick, 512 deep); the defaults keep plain `ctest` fast.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/confidence.h"
#include "proptest/case.h"
#include "proptest/engine.h"
#include "proptest/gen.h"
#include "proptest/oracle.h"
#include "proptest/shrink.h"
#include "testing_util.h"

namespace uniloc {
namespace {

using proptest::CaseSpec;
using proptest::Engine;
using proptest::EngineConfig;
using proptest::EngineReport;
using proptest::Verdict;

Verdict fail_with(const std::string& msg) {
  Verdict v;
  v.violations.push_back(msg);
  return v;
}

/// Scoped env override that restores the previous value on destruction
/// (check.sh may have set UNILOC_PROPTEST_CASES for the whole binary).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// ------------------------------------------------- generator determinism

TEST(Generator, SameSeedSameByteIdenticalSequence) {
  // The engine's core contract: case_at(i) is a pure function of
  // (seed, i) -- byte-identical JSON across independent expansions.
  for (std::size_t i = 0; i < 64; ++i) {
    const CaseSpec a = proptest::generate_case(0xD1CE, i);
    const CaseSpec b = proptest::generate_case(0xD1CE, i);
    ASSERT_EQ(proptest::to_json(a), proptest::to_json(b)) << "case " << i;
    ASSERT_EQ(a, b);
  }
}

TEST(Generator, DifferentSeedsDiverge) {
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    differing += !(proptest::generate_case(1, i) ==
                   proptest::generate_case(2, i));
  }
  EXPECT_GT(differing, 12u);
}

TEST(Generator, CoversEveryServiceShape) {
  // Guard against generator drift: across a few hundred cases the sweep
  // must keep exercising every differential pass the oracle implements.
  std::size_t workers = 0, crashes = 0, bursts = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const CaseSpec s = proptest::generate_case(0xC0FFEE, i);
    workers += s.workers > 0;
    crashes += s.crash_restore;
    bursts += s.burst > 1;
    ASSERT_GE(s.walkers, 1u);
    ASSERT_GE(s.epochs, 1u);
    ASSERT_GE(s.place.walkways, 1);
  }
  EXPECT_GT(workers, 30u);
  EXPECT_GT(crashes, 30u);
  EXPECT_GT(bursts, 30u);
}

TEST(Generator, RandomPlaceIsDeterministicAndWalkable) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::RandomPlaceSpec spec;
    spec.seed = seed;
    spec.walkways = 1 + static_cast<int>(seed % 3);
    spec.venue_mix = static_cast<int>(seed % 4);
    const sim::Place a = sim::random_place(spec);
    const sim::Place b = sim::random_place(spec);
    ASSERT_EQ(a.walkways().size(), b.walkways().size());
    ASSERT_EQ(a.access_points().size(), b.access_points().size());
    ASSERT_EQ(static_cast<std::size_t>(spec.walkways), a.walkways().size());
    for (std::size_t w = 0; w < a.walkways().size(); ++w) {
      ASSERT_GT(a.walkways()[w].line.length(), 1.0);
      ASSERT_DOUBLE_EQ(a.walkways()[w].line.length(),
                       b.walkways()[w].line.length());
    }
  }
}

// ------------------------------------------------------ reproducer codec

TEST(ReproCodec, RoundTripsEveryGeneratedCase) {
  for (std::size_t i = 0; i < 200; ++i) {
    const CaseSpec s = proptest::generate_case(0xB0B, i);
    const std::string line = proptest::to_json(s);
    ASSERT_EQ(line.find('\n'), std::string::npos) << "not one line";
    const std::optional<CaseSpec> back = proptest::from_json(line);
    ASSERT_TRUE(back.has_value()) << line;
    ASSERT_EQ(*back, s) << line;
    // Older lines carry the retired fleet keys; they parse to the same
    // spec, so the committed corpus keeps replaying.
    const std::string::size_type at = line.find("\"crash_restore\"");
    ASSERT_NE(at, std::string::npos) << line;
    const std::string retired =
        R"("shards":3,"migration_churn":true,)"
        R"("churn":[{"round":2,"add":false}],)";
    const std::string old_line = line.substr(0, at) + retired + line.substr(at);
    const std::optional<CaseSpec> old_back = proptest::from_json(old_line);
    ASSERT_TRUE(old_back.has_value()) << old_line;
    ASSERT_EQ(*old_back, s) << old_line;
  }
}

TEST(ReproCodec, Preserves64BitSeedsExactly) {
  // JSON numbers are doubles; seeds above 2^53 must survive anyway
  // (they ride as hex strings).
  CaseSpec s = proptest::generate_case(7, 0);
  s.case_seed = 0xFFFF'FFFF'FFFF'FFFFULL;
  s.load_seed = 0x8000'0000'0000'0001ULL;
  s.deploy_seed = (1ULL << 53) + 1;
  s.faults.seed = 0xDEAD'BEEF'CAFE'F00DULL;
  s.place.seed = 0x7FFF'FFFF'FFFF'FFFDULL;
  const std::optional<CaseSpec> back = proptest::from_json(proptest::to_json(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->case_seed, s.case_seed);
  EXPECT_EQ(back->load_seed, s.load_seed);
  EXPECT_EQ(back->deploy_seed, s.deploy_seed);
  EXPECT_EQ(back->faults.seed, s.faults.seed);
  EXPECT_EQ(back->place.seed, s.place.seed);
}

TEST(ReproCodec, RejectsMalformedInputWithoutCrashing) {
  const char* bad[] = {
      "",
      "not json",
      "{}",
      "[1,2,3]",
      R"({"seed":"0x1"})",
      R"({"seed":"zzz","place":{}})",
      R"({"seed":"0x1","place":{"seed":"0x1"},"walkers":"two"})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(proptest::from_json(line).has_value()) << line;
  }
  // And a truncated valid line.
  const std::string good = proptest::to_json(proptest::generate_case(1, 1));
  EXPECT_FALSE(proptest::from_json(good.substr(0, good.size() / 2)));
}

TEST(ReproCodec, ReproLineIsGreppableAndReplayable) {
  const CaseSpec s = proptest::generate_case(0xAB, 3);
  const std::string line = proptest::repro_line(s, 64);
  EXPECT_EQ(line.rfind("UNILOC_REPRO seed=0x", 0), 0u) << line;
  EXPECT_NE(line.find(" cases=64 "), std::string::npos) << line;
  const std::string::size_type at = line.find("spec=");
  ASSERT_NE(at, std::string::npos);
  const std::optional<CaseSpec> back =
      proptest::from_json(line.substr(at + 5));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
}

// ---------------------------------------------------------------- engine

TEST(Engine_, EnvVarOverridesCaseCount) {
  EngineConfig cfg;
  cfg.cases = 5;
  Engine e(cfg, [](const CaseSpec&) { return Verdict{}; });
  {
    ScopedEnv env("UNILOC_PROPTEST_CASES", "123");
    EXPECT_EQ(e.planned_cases(), 123u);
  }
  {
    ScopedEnv env("UNILOC_PROPTEST_CASES", "garbage");
    EXPECT_EQ(e.planned_cases(), 5u);
  }
  {
    ScopedEnv env("UNILOC_PROPTEST_CASES", nullptr);
    EXPECT_EQ(e.planned_cases(), 5u);
  }
  cfg.use_env = false;
  Engine fixed(cfg, [](const CaseSpec&) { return Verdict{}; });
  ScopedEnv env("UNILOC_PROPTEST_CASES", "123");
  EXPECT_EQ(fixed.planned_cases(), 5u);
}

TEST(Engine_, CorpusIsReplayedBeforeGeneration) {
  const std::string corpus = ::testing::TempDir() + "proptest_corpus_a.jsonl";
  std::remove(corpus.c_str());
  CaseSpec known = proptest::generate_case(0x5EED, 0);
  known.walkers = 9;  // Marker no generated case carries (generator max 4).
  {
    std::ofstream out(corpus);
    out << "# comment lines are skipped\n";
    out << proptest::to_json(known) << "\n";
  }
  EngineConfig cfg;
  cfg.cases = 10;
  cfg.use_env = false;
  cfg.corpus_path = corpus;
  cfg.shrink = false;
  std::vector<std::uint32_t> seen;
  Engine e(cfg, [&seen](const CaseSpec& s) {
    seen.push_back(s.walkers);
    return s.walkers == 9 ? fail_with("marker") : Verdict{};
  });
  const EngineReport report = e.run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.corpus_replayed, 1u);
  // The corpus failure stops the run (max_failures=1) before any
  // generated case executes -- reproducers always come first.
  EXPECT_EQ(report.cases_run, 0u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 9u);
  EXPECT_TRUE(report.failures[0].from_corpus);
  std::remove(corpus.c_str());
}

// --------------------------------------------------- shrinking acceptance

TEST(Shrink, InjectedBugShrinksPersistsAndReplaysGreen) {
  // The ISSUE's acceptance test, end to end: inject an invariant
  // violation, watch the engine find it, shrink it to a minimal
  // reproducer (<= 2 walkers, <= 5 epochs), persist it, then "fix" the
  // bug and watch the corpus replay green.
  const std::string corpus = ::testing::TempDir() + "proptest_corpus_b.jsonl";
  std::remove(corpus.c_str());

  // The injected bug: any run with >= 2 walkers and >= 4 epochs
  // "violates" -- monotone in both, so the minimum is exactly (2, 4).
  auto buggy = [](const CaseSpec& s) {
    return (s.walkers >= 2 && s.epochs >= 4)
               ? fail_with("I-test: injected violation")
               : Verdict{};
  };

  EngineConfig cfg;
  cfg.seed = 0x5EED;
  cfg.cases = 50;
  cfg.use_env = false;
  cfg.corpus_path = corpus;
  cfg.shrink_budget = 400;
  Engine e(cfg, buggy);
  const EngineReport report = e.run();
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 1u);
  const CaseSpec& min = report.failures[0].shrunk;

  // Minimal along every axis the bug does not depend on.
  EXPECT_EQ(min.walkers, 2u);
  EXPECT_EQ(min.epochs, 4u);
  EXPECT_LE(min.walkers, 2u);  // The ISSUE's acceptance bound.
  EXPECT_LE(min.epochs, 5u);
  EXPECT_EQ(min.burst, 1u);
  EXPECT_EQ(min.workers, 0u);
  EXPECT_TRUE(min.faults.crash_rounds.empty());
  EXPECT_TRUE(min.faults.blackouts.empty());
  EXPECT_EQ(min.faults.rates, fault::FaultRates{});
  EXPECT_EQ(min.place.walkways, 1);
  EXPECT_EQ(min.place.legs_per_walkway, 1);
  // The repro line carries the shrunk spec.
  EXPECT_NE(report.failures[0].repro.find("UNILOC_REPRO seed=0x"),
            std::string::npos);

  // Persisted: exactly one corpus line, equal to the shrunk spec.
  std::ifstream in(corpus);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const std::optional<CaseSpec> persisted = proptest::from_json(line);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(*persisted, min);
  EXPECT_FALSE(std::getline(in, line));

  // "Revert the bug": the same corpus now replays green, and the replay
  // really ran the persisted reproducer.
  std::size_t replayed_walkers = 0;
  EngineConfig fixed = cfg;
  fixed.cases = 0;
  Engine green(fixed, [&](const CaseSpec& s) {
    replayed_walkers = s.walkers;
    return Verdict{};
  });
  const EngineReport after = green.run();
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.corpus_replayed, 1u);
  EXPECT_EQ(replayed_walkers, 2u);
  std::remove(corpus.c_str());
}

TEST(Shrink, NonMonotoneBugStillEndsOnAFailingSpec) {
  // The shrinker must never "shrink" onto a passing spec, even when the
  // failure is a point condition binary search cannot exploit.
  CaseSpec start = proptest::generate_case(0x77, 0);
  start.epochs = 7;
  start.walkers = 3;
  auto fails = [](const CaseSpec& s) { return s.epochs == 7; };
  ASSERT_TRUE(fails(start));
  proptest::ShrinkStats stats;
  const CaseSpec min = proptest::shrink_case(start, fails, 300, &stats);
  EXPECT_TRUE(fails(min)) << "shrinker returned a passing spec";
  EXPECT_EQ(min.walkers, 1u);  // Orthogonal fields still minimized.
  EXPECT_GT(stats.attempts, 0u);
}

TEST(Shrink, BudgetCapsOracleEvaluations) {
  std::size_t evals = 0;
  CaseSpec start = proptest::generate_case(0x88, 1);
  start.walkers = 4;
  start.epochs = 16;
  const CaseSpec min = proptest::shrink_case(
      start,
      [&evals](const CaseSpec&) {
        ++evals;
        return true;  // Everything fails: worst case for the search.
      },
      25, nullptr);
  EXPECT_LE(evals, 25u);
  EXPECT_TRUE(min.walkers >= 1 && min.epochs >= 1);
}

// ------------------------------------------------ the paper's arithmetic

TEST(PaperEquations, CorrectDecisionPassesAndEachOneLineMistakeIsFlagged) {
  // An outdoor GPS / WiFi / Motion decision built with the pipeline's own
  // math (core/confidence for Eq. 2 and 5, posterior means for Eq. 4).
  core::EpochDecision good;
  good.outputs.resize(3);
  good.outputs[0].estimate = {10.0, 0.0};  // empty posterior: the estimate
  good.outputs[1].estimate = {4.0, 2.0};
  good.outputs[1].posterior.support = {{{4.0, 2.0}, 0.75}, {{8.0, 6.0}, 0.25}};
  good.outputs[2].posterior.support = {{{6.0, 1.0}, 0.5}, {{7.0, -1.0}, 0.5}};
  for (schemes::SchemeOutput& o : good.outputs) o.available = true;
  good.predicted_error = {{13.5, 4.0}, {6.0, 2.0}, {9.0, 3.0}};
  good.indoor = false;
  good.tau = core::adaptive_tau(good.predicted_error);
  std::vector<double> sharpened;
  for (const stats::Gaussian& g : good.predicted_error) {
    good.confidence.push_back(core::confidence(g, good.tau));
    sharpened.push_back(std::pow(good.confidence.back(), 4.0));
  }
  good.weight = core::bma_weights(sharpened);
  good.selected = 1;  // WiFi: the smallest predicted error
  good.uniloc2 = good.outputs[0].estimate * good.weight[0] +
                 good.outputs[1].posterior.mean() * good.weight[1] +
                 good.outputs[2].posterior.mean() * good.weight[2];
  good.gps_enable_next = false;  // GPS mu 13.5 > WiFi mu 6.0
  const auto flags = [](const core::EpochDecision& d) {
    return proptest::check_paper_equations(d, /*gps_index=*/0, 13.5);
  };
  EXPECT_EQ(flags(good), std::vector<std::string>{});

  using Mistake = void (*)(core::EpochDecision&);
  const std::vector<std::pair<const char*, Mistake>> mistakes = {
      {"tau", [](core::EpochDecision& d) { d.tau += 0.5; }},
      {"confidence", [](core::EpochDecision& d) { d.confidence[2] *= 1.01; }},
      {"argmax", [](core::EpochDecision& d) { d.selected = 2; }},
      {"weight", [](core::EpochDecision& d) { d.weight[0] += 1e-3; }},
      {"duty bit", [](core::EpochDecision& d) { d.gps_enable_next = true; }},
  };
  for (const auto& [name, inject] : mistakes) {
    core::EpochDecision bad = good;
    inject(bad);
    EXPECT_FALSE(flags(bad).empty()) << "a wrong " << name << " went unflagged";
  }
  // Indoors the duty cycle keeps GPS off, whatever the predictions.
  good.indoor = true;
  EXPECT_EQ(flags(good), std::vector<std::string>{});
  good.gps_enable_next = true;
  EXPECT_FALSE(flags(good).empty());
}

// ----------------------------------------------- the real-oracle sweeps

const core::TrainedModels& sweep_models() {
  return testing_util::standard_models(100);
}

void expect_clean(const EngineReport& report) {
  for (const proptest::CaseFailure& f : report.failures) {
    ADD_FAILURE() << f.repro << "\n  first violation: "
                  << f.verdict.summary();
  }
}

TEST(ChaosSweep, GeneratedWorldsHoldAllInvariants) {
  // The tentpole: random venues, deployments, gaits, fault schedules
  // and crash points, all checked against I0-I6, I8 and I9. Scaled by
  // UNILOC_PROPTEST_CASES; replays the committed reproducer corpus
  // first.
  EngineConfig cfg;
  cfg.seed = 0x0A0B'0C0D;
  cfg.cases = 128;
  cfg.corpus_path = std::string(UNILOC_CORPUS_DIR) + "/reproducers.jsonl";
  Engine e(cfg, [](const CaseSpec& s) { return run_case(s, sweep_models()); });
  const EngineReport report = e.run();
  expect_clean(report);
  EXPECT_GT(report.cases_run + report.corpus_replayed, 0u);
  // The loader skips a line it cannot parse with only a stderr note, so
  // a codec change that stopped reading old lines would empty the
  // corpus silently: every non-comment line must replay.
  std::ifstream in(cfg.corpus_path);
  ASSERT_TRUE(in) << cfg.corpus_path;
  std::size_t corpus_lines = 0;
  for (std::string line; std::getline(in, line);) {
    corpus_lines += !line.empty() && line[0] != '#';
  }
  EXPECT_GT(corpus_lines, 0u);
  EXPECT_EQ(report.corpus_replayed, corpus_lines);
}

}  // namespace
}  // namespace uniloc
