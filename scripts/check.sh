#!/usr/bin/env bash
# Tier-1 gate: configure, build everything, run the full test suite.
#
#   scripts/check.sh                 # default RelWithDebInfo build/
#   BUILD_DIR=build-asan CMAKE_ARGS="-DUNILOC_SANITIZE=address" \
#     scripts/check.sh               # sanitized tree in its own dir
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
# The epoch-arena contract tests (tests/test_perf_contracts.cc), rerun by
# name in the sanitizer tiers below.
ARENA_TESTS='^perf\.PerfContracts\.(InterleavedSessions|EpochArena|UpdateFastLeaves)'
# The kernel oracles (tests/test_differential.cc): each optimized kernel
# of the epoch pipeline against the exact function it replaces.
KERNEL_ORACLES='^diff\.KernelOracle\.'

# The default and scalar-fallback trees build with warnings as errors
# (-Wall -Wextra, CMakeLists.txt), so a new warning fails the gate here
# rather than scrolling past. CMAKE_ARGS comes last and can override it.
WERROR="-DCMAKE_COMPILE_WARNING_AS_ERROR=ON"
cmake -B "$BUILD_DIR" -S . "$WERROR" ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Property-test quick gate: rerun the generative chaos sweeps at a fixed
# 64 cases per engine so the gate's depth does not silently drift with
# the in-tree defaults. Replays tests/corpus/reproducers.jsonl first; on
# a violation the engine prints a greppable `UNILOC_REPRO seed=...` line
# and the shrunk minimal spec.
UNILOC_PROPTEST_CASES=64 \
  ctest --test-dir "$BUILD_DIR" -L '^proptest$' --output-on-failure -j "$JOBS"

# SIMD differential gate: the vectorization-aware kernel tier (det_exp /
# det_log / det_sincos accuracy, vector kernel == scalar oracle at every
# lane-tail size, denormal and +-inf inputs, the 10k-particle systematic
# resampling distribution check) reruns explicitly so a vectorization
# regression fails greppably, not buried in the full-suite run above.
ctest --test-dir "$BUILD_DIR" -L '^simd$' --output-on-failure -j "$JOBS"

# Scalar-fallback gate: the whole suite again in a -DUNILOC_NO_SIMD=ON
# tree (vector kernels compiled out, no -fopenmp-simd). Golden traces are
# shared with the native build, so this gate proves the scalar and
# vectorized pipelines are bit-identical, not merely both
# self-consistent. Set NOSIMD=0 to skip.
if [[ "${NOSIMD:-1}" != "0" ]]; then
  NOSIMD_DIR="${NOSIMD_DIR:-build-nosimd}"
  cmake -B "$NOSIMD_DIR" -S . -DUNILOC_NO_SIMD=ON "$WERROR"
  cmake --build "$NOSIMD_DIR" -j "$JOBS"
  ctest --test-dir "$NOSIMD_DIR" --output-on-failure -j "$JOBS"
fi

# Tier-2 gate A: the src/svc concurrency suite must be clean under
# ThreadSanitizer (worker pool, session strands, server instrumentation).
# Only test_svc is built in the sanitized tree -- the `svc` ctest label
# selects exactly its tests. Set TSAN=0 to skip (e.g. no libtsan).
if [[ "${TSAN:-1}" != "0" ]]; then
  TSAN_DIR="${TSAN_DIR:-build-tsan}"
  cmake -B "$TSAN_DIR" -S . -DUNILOC_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target test_svc test_differential test_obs
  ctest --test-dir "$TSAN_DIR" -L '^svc$' --output-on-failure -j "$JOBS"
  # Observability gate: the lock-free metrics (atomic counters/gauges),
  # the span tracer, and the flight recorder are all recorded from worker
  # threads concurrently -- the `obs` label's concurrency tests must be
  # clean under TSan too.
  ctest --test-dir "$TSAN_DIR" -L '^obs$' --output-on-failure -j "$JOBS"
  # Invariance gate: the differential suite checks that worker count
  # leaves the served stream bit-identical under link chaos. Its
  # workers=4 sweeps let TSan check that each worker thread's epoch
  # arena (scan memos and kernel buffers included) is touched by that
  # thread alone, and that session state stays confined to its session
  # strand.
  ctest --test-dir "$TSAN_DIR" -R '^diff\.' --output-on-failure -j "$JOBS"
  # Property-test concurrency gate: the generated-world sweep spawns a
  # workers>0 pass for a quarter of its cases -- TSan watches the same
  # pools/strands the svc gate covers, but under generated fault
  # schedules and crash points instead of hand-picked ones.
  cmake --build "$TSAN_DIR" -j "$JOBS" --target test_proptest
  UNILOC_PROPTEST_CASES=32 ctest --test-dir "$TSAN_DIR" \
    -R '^proptest\.ChaosSweep' --output-on-failure -j "$JOBS"
  # Dispatch-order gate: two pool workers drain interleaved sessions
  # through the server's own post-a-drain dispatch; each session must
  # see its epochs in submission order, with TSan watching the strand
  # handshake (the allocation-counting hook is compiled out under
  # sanitizers; the ordering assertions still run).
  cmake --build "$TSAN_DIR" -j "$JOBS" --target test_perf_contracts
  ctest --test-dir "$TSAN_DIR" \
    -R '^perf\.PerfContracts\.BatchAssemblyNeverReordersEpochsWithinASession$' \
    --output-on-failure -j "$JOBS"
  # Epoch-arena gate: the arena contracts ride along with the workers=4
  # sweeps above -- nine sessions (one with a kOther scheme) round-robin
  # through one arena bit-identical to their solo runs, memo slots
  # recycled across deployments, no epoch context left behind.
  ctest --test-dir "$TSAN_DIR" -R "$ARENA_TESTS" --output-on-failure -j "$JOBS"
  # Wave-fill gate: with pool workers and a group committer, the
  # committer thread fills checkpoint waves -- quiescing and serializing
  # sessions while live epochs, hello/bye churn and backpressure
  # fallbacks run on the other threads. The delta suite's committer and
  # server-chain tests drive exactly those races.
  cmake --build "$TSAN_DIR" -j "$JOBS" --target test_delta
  ctest --test-dir "$TSAN_DIR" -L '^delta$' --output-on-failure -j "$JOBS"
fi

# Tier-2 gate B: the fault-injection path (svc + chaos labels: the
# concurrency suite, the chaos suite, and the golden-trace replays) must
# be clean under AddressSanitizer + UndefinedBehaviorSanitizer -- the
# FaultyLink juggles promise/future lifetimes and cached reply buffers
# across retries, exactly where ASan finds use-after-move/free bugs.
# Set ASAN=0 to skip (e.g. no libasan).
if [[ "${ASAN:-1}" != "0" ]]; then
  ASAN_DIR="${ASAN_DIR:-build-asan}"
  cmake -B "$ASAN_DIR" -S . "-DUNILOC_SANITIZE=address;undefined"
  cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target test_svc test_fault test_golden test_differential
  ctest --test-dir "$ASAN_DIR" -L 'svc|chaos' --output-on-failure -j "$JOBS"
  # Invariance gate: the worker differentials must stay clean under
  # ASan/UBSan -- the zero-allocation arena reuses buffers across epochs
  # and sessions, exactly where stale-pointer bugs would hide.
  ctest --test-dir "$ASAN_DIR" -R '^diff\.' --output-on-failure -j "$JOBS"
  # Kernel-oracle gate: the env index, the scan memo and likelihood
  # cache, and the context-shared scheme kernels against the exact
  # functions they replace, rerun by name so an out-of-bounds read in an
  # index or memo fails greppably.
  ctest --test-dir "$ASAN_DIR" -R "$KERNEL_ORACLES" --output-on-failure \
    -j "$JOBS"
  # Arena-lifetime gate: a worker's epoch arena dies with its thread while
  # the sessions it served live on. The contract tests free an arena after
  # one epoch and call a scheme's update_into directly -- a use-after-free
  # here if update_fast left its epoch context installed -- and run nine
  # sessions through one arena, where a stale read would hide.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_perf_contracts
  ctest --test-dir "$ASAN_DIR" -R "$ARENA_TESTS" --output-on-failure -j "$JOBS"
  # Crash-recovery gate: the checkpoint suite (codec round trips, the
  # crash-recovery differential, and the snapshot fuzz: record payloads
  # cut or bit-flipped and re-sealed behind a valid CRC, so the damage
  # reaches Uniloc::restore_from) must be clean under ASan+UBSan --
  # restore() is the server's hostile deserialization boundary, exactly
  # where OOB reads would hide.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_checkpoint
  ctest --test-dir "$ASAN_DIR" -L '^checkpoint$' --output-on-failure -j "$JOBS"
  # Chaos-with-tracing gate: the chaos suite includes fault.trace_*
  # tests that run scripted disasters with the span tracer attached and
  # assert zero span leaks (spans opened == spans closed) -- every epoch
  # abandoned to a drop, blackout, crash or backpressure must still
  # close its span tree. They ran under ASan in the `chaos` label above;
  # rerun them by name so a leak fails loudly and greppably here.
  ctest --test-dir "$ASAN_DIR" -R '\.trace_' --output-on-failure -j "$JOBS"
  # Property-test deep gate: 512 generated cases per engine under
  # ASan+UBSan. The generator reaches configurations no hand-written
  # suite pins (burst arrival x blackout x crash/restore x delta chain),
  # and the oracle's differential passes replay every frame through the
  # FaultyLink retry path -- the densest traffic the codec and reply
  # buffers ever see. A failure shrinks, prints UNILOC_REPRO, and
  # appends the minimal spec to tests/corpus/reproducers.jsonl.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_proptest
  UNILOC_PROPTEST_CASES=512 ctest --test-dir "$ASAN_DIR" \
    -L '^proptest$' --output-on-failure -j "$JOBS"
  # SIMD-kernel gate: the vector kernels read SoA arrays through raw
  # pointers with hand-managed lane tails -- exactly where an
  # off-by-one past the last lane would hide. The kernel tier reruns
  # under ASan+UBSan (which also checks the bit_cast exponent tricks in
  # stats/vecmath.h for UB).
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_simd_kernels
  ctest --test-dir "$ASAN_DIR" -L '^simd$' --output-on-failure -j "$JOBS"
  # Decoder-fuzz gate: the delta suite is the wave-chain hostile-input
  # boundary -- the wave decoder's bit-flip/truncation fuzz, the
  # quantized (v2) particle codec fuzz, the torn-publish fault
  # injection, and collapse_chain over damaged chains all rerun under
  # ASan+UBSan, exactly where an OOB read in a length-prefixed parser
  # would hide.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_delta
  ctest --test-dir "$ASAN_DIR" -L '^delta$' --output-on-failure -j "$JOBS"
  # Generator gate: every filter record ends in a 16-byte Philox
  # generator field and every wave in a CRC -- the byte-level
  # hostile-input boundary under all of the above. The Philox known
  # answers, the generator-field truncation tests of both filter codecs,
  # the simulator engine's identity and the CRC tests rerun by name so a
  # failure is greppable.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_stats
  ctest --test-dir "$ASAN_DIR" -R 'Philox|Mt19937|Crc32' \
    --output-on-failure -j "$JOBS"
fi

# City-scale smoke: the soak bench at 2k walkers (the full 100k run
# lives in EXPERIMENTS.md) -- arrival, churn, rotating traffic, delta
# waves through the async group committer, and a cold restore_chain of
# the directory it wrote. Exits nonzero if the restore loses a session.
# Set SOAK=0 to skip.
if [[ "${SOAK:-1}" != "0" ]]; then
  # cwd = the build tree so the smoke's BENCH_soak.json does not clobber
  # the committed full-scale report at the repo root.
  (cd "$BUILD_DIR" && UNILOC_SOAK_WALKERS=2000 UNILOC_SOAK_ROUNDS=6 \
    bench/soak)
fi

# Checkpoint-directory smoke: serve-sim must create a --checkpoint-dir
# that does not exist yet (parents included), publish every wave into it
# (it exits nonzero on a failed publish), and a second run must restore
# that chain with no wave rejected.
CKPT_TMP="$(mktemp -d)"
CKPT_DIR="$CKPT_TMP/absent/chain"
serve_sim() {
  "$BUILD_DIR/examples/uniloc_cli" serve-sim --walkers 3 --epochs 6 \
    --checkpoint-dir "$CKPT_DIR"
}
out="$(serve_sim)"
grep -q ' 0 publish failures) ' <<< "$out"
compgen -G "$CKPT_DIR/wave-*.bin" > /dev/null
out="$(serve_sim)"
grep -qE '^restored .* 0 waves rejected\)' <<< "$out"
rm -rf "$CKPT_TMP"
