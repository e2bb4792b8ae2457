// The property-test engine: corpus replay, generation, oracle, shrink,
// persist -- the loop every proptest suite runs.
//
//   Engine e(cfg, oracle);
//   EngineReport r = e.run();
//
// run() first replays every reproducer in the corpus file (yesterday's
// minimal failures guard today's code), then generates cfg.cases fresh
// cases from cfg.seed. Each failure:
//
//   1. prints the greppable `UNILOC_REPRO seed=... cases=... spec=...`
//      line (stderr) with the full generator parameters,
//   2. shrinks it to a locally minimal failing spec (budgeted),
//   3. prints the shrunk reproducer the same way, and
//   4. appends the shrunk spec to the corpus file (one JSON line).
//
// The case sequence is a pure function of cfg.seed: case_at(i) returns
// byte-identical specs across runs, processes and platforms (tier-1
// pins this). The oracle is injected, so tests drive the engine with
// synthetic bugs to prove shrinking works end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "proptest/case.h"
#include "proptest/oracle.h"

namespace uniloc::proptest {

/// Runs one case; the engine only reads Verdict::ok(). Wrap run_case()
/// with the trained models bound, or inject a synthetic bug in tests.
using OracleFn = std::function<Verdict(const CaseSpec&)>;

struct EngineConfig {
  std::uint64_t seed{20260808};
  /// Fresh cases to generate (corpus replays are on top of this).
  std::size_t cases{64};
  /// When set, UNILOC_PROPTEST_CASES overrides `cases` (the deep-gate
  /// lever: check.sh runs 64 quick / 512 deep without a rebuild).
  bool use_env{true};
  /// JSONL reproducer corpus; replayed first, minimal failures appended.
  /// Empty = no corpus (generation only).
  std::string corpus_path;
  /// Append shrunk failures to corpus_path (off for read-only replay).
  bool persist_failures{true};
  bool shrink{true};
  std::size_t shrink_budget{160};
  /// Stop after this many distinct failing cases (shrinking is
  /// expensive; one minimal reproducer is what a human debugs first).
  std::size_t max_failures{1};
  /// Applied to every generated case before it runs: force a shape
  /// (e.g. `c.workers = 4` for a threads-only suite). Corpus replays are
  /// NOT mutated -- a reproducer replays exactly as persisted.
  std::function<void(CaseSpec& spec, std::size_t index)> mutate;
};

struct CaseFailure {
  CaseSpec spec;          ///< As generated (or loaded from the corpus).
  CaseSpec shrunk;        ///< == spec when shrinking is off/na.
  Verdict verdict;        ///< The original spec's violations.
  bool from_corpus{false};
  std::string repro;      ///< The shrunk spec's UNILOC_REPRO line.
};

struct EngineReport {
  std::size_t cases_run{0};        ///< Fresh generated cases executed.
  std::size_t corpus_replayed{0};  ///< Reproducers replayed first.
  std::vector<CaseFailure> failures;

  bool ok() const { return failures.empty(); }
};

class Engine {
 public:
  Engine(EngineConfig cfg, OracleFn oracle);

  /// The i-th case this engine would run: generate_case + mutate. Pure.
  CaseSpec case_at(std::size_t index) const;

  /// cfg.cases, or UNILOC_PROPTEST_CASES when use_env and it is set.
  std::size_t planned_cases() const;

  /// Corpus replay + generation sweep. See the header comment.
  EngineReport run();

 private:
  std::vector<CaseSpec> load_corpus() const;
  void record_failure(const CaseSpec& spec, Verdict verdict, bool from_corpus,
                      std::size_t planned, EngineReport* report);

  EngineConfig cfg_;
  OracleFn oracle_;
};

}  // namespace uniloc::proptest
