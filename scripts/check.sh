#!/bin/sh
# Per-PR check: the tier-1 verify (full build + ctest) plus sanitizer and
# fault-injection configurations:
#
#   * ThreadSanitizer over the concurrency-sensitive tests (parallel
#     kernels, ParallelFor, thread pool, lock-free updater, the components'
#     atomic stats counters and the obs:: span tracer hot path).
#   * AddressSanitizer+UBSan over the memory-hierarchy and updater tests,
#     which exercise raw pread/pwrite buffers and page frame arithmetic.
#   * A fault-injection pass: the suites re-run with ANGELPTM_FAULT_SITES
#     armed, proving the env-driven failpoint path works and that transient
#     I/O faults are absorbed by the one retry schedule of the SSD tier and
#     the socket collectives (util::RetryTransient, see DESIGN.md §7).
#   * A trace-smoke pass: a real training binary runs under ANGELPTM_TRACE
#     and the emitted Chrome trace JSON must parse (see DESIGN.md §8).
#
#   * A lint pass (DESIGN.md §10): the project linter (scripts/lint.py)
#     always runs; clang-tidy and the changed-files-only clang-format check
#     run when the tools are installed and skip with a notice otherwise
#     (the CI lint job installs them).
#
#   * A SIMD dispatch pass (DESIGN.md §11): the kernel golden tests, the
#     Transformer suite and the fp16 conversion tests (the bulk converters
#     bitwise against the scalar functions, and HalfTest) re-run with
#     ANGELPTM_SIMD forced to each path, proving the env override is
#     honored end to end and that both code paths match their references
#     on whatever host this runs on (the avx2-path tests skip themselves on
#     hosts without AVX2+FMA+F16C); then a kernel_bench smoke runs its
#     GEMM-variant, attention and fp16-conversion guards on the dispatched
#     path and again on the scalar path.
#
#   * An optimizer pass (DESIGN.md §13): the golden suite for every
#     registered update rule (Adam bitwise vs the SIMD kernel, SGDM/LAMB/
#     Adafactor vs naive references, thread-count invariance), the seqlock
#     torn-read stress, the checkpoint v3 tests, and a smoke run of the
#     updater-contention bench across all rules.
#
#   * A dist pass (DESIGN.md §14): the socket-collective property tests,
#     the ZeRO checkpoint cases of ShardedDpTest (each rank's shards as a
#     v3 checkpoint), and the fork/exec multi-process tests (4-rank
#     bitwise match vs single-process, SIGKILL-one-rank gang restart), plus
#     an angel_worker launcher smoke at 2 and 4 real ranks whose rank-0
#     result file must match the single-process run byte for byte.
#
#   * A lockdep pass (DESIGN.md §15): the full suite rebuilt with
#     -DANGELPTM_LOCKDEP=ON (instrumented mutexes: lock-order cycles, rank
#     inversions, and same-class nesting abort the offending test), the
#     deliberate-ABBA negative tests, a lock-order graph dump (the CI
#     artifact), and a seeded schedule-perturbation sweep over the
#     updater / copy-engine / SSD / dist suites.
#
#   * A perfbench pass: the end-to-end training benchmark (perfbench/)
#     builds against ../src and runs its smoke mode — every workload for a
#     few steps, timed and traced, with all of its output checks — so a
#     Trainer or Engine API change that breaks the benchmark fails here.
#
# Usage: scripts/check.sh
#   [--tier1-only|--tsan-only|--asan-only|--trace-smoke|--lint|--simd|
#    --optimizers|--dist|--lockdep|--perfbench]
#
# Every leg configures and builds the targets it runs, even when they
# exist: a build tree restored from an older commit would otherwise run
# stale binaries. The incremental build is a no-op on a current tree.
set -e
cd "$(dirname "$0")/.."

MODE="${1:-all}"
case "$MODE" in
  all|--tier1-only|--tsan-only|--asan-only|--trace-smoke|--lint|--simd|\
  --optimizers|--dist|--lockdep|--perfbench) ;;
  *) echo "check.sh: unknown mode $MODE" >&2; exit 2 ;;
esac

if [ "$MODE" = all ] || [ "$MODE" = --tier1-only ]; then
  echo "=== tier-1: build + full test suite ==="
  cmake -B build -S .
  cmake --build build -j "$(nproc)"
  (cd build && ctest --output-on-failure -j)

  echo "=== fault injection: env-driven failpoints ==="
  # The env probe proves ANGELPTM_FAULT_SITES is parsed and armed end to end.
  ANGELPTM_FAULT_SITES="check.env_probe=always" \
    ./build/tests/util_test --gtest_filter='FaultInjectorTest.EnvSpec*'
  # A transient fault on the binary's first pwrite: a retry must absorb it
  # and the whole mem suite still passes.
  ANGELPTM_FAULT_SITES="ssd.pwrite=nth:1" ./build/tests/mem_test
  # The same for the socket collectives' first frame send.
  ANGELPTM_FAULT_SITES="pg.send=nth:1" ./build/tests/dist_test \
    --gtest_filter='ProcessGroupTest.*'
fi

if [ "$MODE" = all ] || [ "$MODE" = --lint ]; then
  echo "=== lint: project rules (scripts/lint.py, DESIGN.md §10) ==="
  python3 scripts/lint.py

  if command -v clang-tidy > /dev/null 2>&1; then
    echo "=== lint: clang-tidy (bugprone / concurrency / performance) ==="
    # Configure (not build) is enough: it exports compile_commands.json.
    cmake -B build -S . > /dev/null
    git ls-files 'src/*.cc' 'src/*/*.cc' | \
      xargs clang-tidy -p build --quiet
  else
    echo "lint: clang-tidy not found; skipping (the CI lint job runs it)"
  fi

  if command -v clang-format > /dev/null 2>&1; then
    echo "=== lint: clang-format (changed files only) ==="
    # Diff base: origin/main in CI (CHECK_FORMAT_BASE), HEAD locally so
    # only uncommitted edits are checked.
    BASE="${CHECK_FORMAT_BASE:-HEAD}"
    CHANGED=$(git diff --name-only --diff-filter=ACMR "$BASE" -- \
      '*.h' '*.cc' || true)
    if [ -n "$CHANGED" ]; then
      echo "$CHANGED" | xargs clang-format --dry-run --Werror
    else
      echo "lint: no changed C++ files vs $BASE"
    fi
  else
    echo "lint: clang-format not found; skipping (the CI lint job runs it)"
  fi
fi

if [ "$MODE" = all ] || [ "$MODE" = --simd ]; then
  echo "=== SIMD dispatch: golden tests under both ANGELPTM_SIMD paths ==="
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target train_test core_test \
    util_test kernel_bench
  # The dispatch cache resolves the env var once per process, so each
  # forced path gets its own process. The golden suite is parameterized
  # over both paths internally; forcing the env on top proves the
  # env-override plumbing (not just ScopedForceIsa) selects the path.
  # TransformerTest is not parameterized, so the env is what moves its
  # attention and other kernels between the paths.
  for SIMD in scalar avx2; do
    ANGELPTM_SIMD=$SIMD ./build/tests/train_test \
      --gtest_filter='*KernelGoldenTest*:SimdDispatchTest.*:TransformerTest.*'
    ANGELPTM_SIMD=$SIMD ./build/tests/core_test \
      --gtest_filter='*HalfConvertGoldenTest*'
    ANGELPTM_SIMD=$SIMD ./build/tests/util_test --gtest_filter='HalfTest.*'
  done
  # Smoke geometry (256^3 GEMM); the attention and conversion rows keep
  # their workload shapes. Exit 1 if a transposed GEMM is >2x slower than
  # gemm, the dispatched attention is not faster than its reference, or
  # (avx2 path) the fp16 converters are not faster than the scalar ones.
  # Once per path: the scalar run is what a host without AVX2+FMA gets.
  ./build/bench/kernel_bench build/BENCH_kernels_smoke.json 256
  ANGELPTM_SIMD=scalar \
    ./build/bench/kernel_bench build/BENCH_kernels_smoke_scalar.json 256
fi

if [ "$MODE" = all ] || [ "$MODE" = --optimizers ]; then
  echo "=== optimizers: golden rules, seqlock stress, ckpt v3, bench ==="
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target core_test util_test \
    runtime_test optimizer_bench
  # Every registered rule against its reference (Adam must be bitwise
  # identical to the SIMD kernel path) plus thread-count invariance.
  ./build/tests/core_test --gtest_filter='OptimizerTest.*'
  # The seqlock torn-read stress: concurrent writers never expose a
  # mixed-generation payload to the lock-free readers.
  ./build/tests/util_test --gtest_filter='SeqLock*'
  # Checkpoint v3 (self-describing slots) round-trips, refuses v1/v2
  # files, and rejects a rule mismatch instead of mixing state.
  ./build/tests/runtime_test --gtest_filter='CheckpointTest.*'
  # Contention bench in smoke geometry: all rules must run end to end
  # with extra lock-free readers hammering the parameter mirror.
  ./build/bench/optimizer_bench build/BENCH_optimizer_smoke.json 4096
fi

if [ "$MODE" = all ] || [ "$MODE" = --dist ]; then
  echo "=== dist: multi-process ZeRO over sockets (DESIGN.md §14) ==="
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target dist_test angel_worker
  # The full dist suite: socket-collective property tests (50+ random
  # layouts bitwise vs the in-process Communicator), ZeRO shard
  # checkpoints in the v3 format (ShardedDpTest), and the fork/exec
  # multi-process tests (4-rank bitwise match plus the SIGKILL-one-rank
  # recovery drill).
  ./build/tests/dist_test
  # Launcher smoke: every rank is a real OS process rendezvousing over a
  # Unix-domain socket; the rank-0 result file (losses, validation loss,
  # and every parameter, all spelled as raw bit patterns) must match the
  # single-process run byte for byte.
  for WORLD in 2 4; do
    DIST_DIR=$(mktemp -d "${TMPDIR:-/tmp}/aptm-dist-XXXXXX")
    ./build/tools/angel_worker --backend=inproc --world="$WORLD" \
      --steps=6 --result-file="$DIST_DIR/inproc.txt"
    R=1
    while [ "$R" -lt "$WORLD" ]; do
      ./build/tools/angel_worker --backend=pg --rank="$R" \
        --world="$WORLD" --rendezvous="$DIST_DIR/rdv.sock" --steps=6 &
      R=$((R + 1))
    done
    ./build/tools/angel_worker --backend=pg --rank=0 --world="$WORLD" \
      --rendezvous="$DIST_DIR/rdv.sock" --steps=6 \
      --result-file="$DIST_DIR/pg.txt"
    wait
    cmp "$DIST_DIR/inproc.txt" "$DIST_DIR/pg.txt"
    echo "dist: world=$WORLD matches single-process bitwise"
    rm -rf "$DIST_DIR"
  done
fi

if [ "$MODE" = all ] || [ "$MODE" = --trace-smoke ]; then
  echo "=== trace smoke: ANGELPTM_TRACE produces loadable JSON ==="
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target quickstart
  TRACE_OUT="build/trace_smoke.json"
  rm -f "$TRACE_OUT"
  ANGELPTM_TRACE="$TRACE_OUT" ./build/examples/quickstart > /dev/null
  test -s "$TRACE_OUT"
  if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$TRACE_OUT" > /dev/null
    echo "trace smoke: $TRACE_OUT is valid JSON"
  else
    # No python on the host: fall back to the structural grep the golden
    # test also performs.
    grep -q '"traceEvents":\[' "$TRACE_OUT"
    grep -q '"dropped_spans":' "$TRACE_OUT"
    echo "trace smoke: $TRACE_OUT has the trace_event envelope"
  fi
fi

if [ "$MODE" = all ] || [ "$MODE" = --tsan-only ]; then
  echo "=== ThreadSanitizer: thread pool / ParallelFor / kernel tests ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "$(nproc)" --target util_test obs_test \
    train_test runtime_test
  # Deterministically exercise the parallel code paths even on small CI
  # hosts: the kernels split work as if 4 workers were present.
  ANGELPTM_COMPUTE_THREADS=4 \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
      -R 'util_test|obs_test|train_test|runtime_test'
  # The crash/restart suite once more, explicitly: CheckpointManager::Save
  # cuts a *running* lock-free updater layer by layer and hands the
  # persist to a background writer that reads pinned SSD frames while the
  # updater rewrites the layers, and the recovery loop tears threads down
  # mid-error — any lock the cut, the pins or the writer miss surfaces
  # here (see DESIGN.md §9).
  # The suite is parameterized over both step backends (direct and paged),
  # so its names carry a prefix: Backends/RecoveryTest.<case>/<backend>.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/train_test --gtest_filter='*RecoveryTest.*'
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/runtime_test \
      --gtest_filter='CheckpointTest.*:CheckpointManagerTest.*'
  # Copy-on-write under load: the persist reads pinned frames while the
  # updating thread moves the same layers, 50 times over.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/runtime_test --gtest_repeat=50 \
      --gtest_filter='CheckpointManagerTest.PinnedCut*:CheckpointManagerTest.SaveOnARunningUpdater*'
  # Stop() with updates in flight: p'16 must match the masters once Stop()
  # returns. The queued-install race this guarded lost about one run in
  # five before it was fixed, so repeat it.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/runtime_test --gtest_repeat=200 \
      --gtest_filter='LockFreeUpdaterTest.StopLeavesNoParameterInstallBehind'
  # The streamed update runs the rule in place over page spans on the
  # compute pool, and swaps g'16 while the buffering thread accumulates
  # into the other buffer, 50 times over.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/runtime_test --gtest_repeat=50 \
      --gtest_filter='LockFreeUpdaterTest.StreamedUpdateMatchesWholeLayerBitwise:LockFreeUpdaterTest.GradientSwapLosesNoBatch'
fi

if [ "$MODE" = all ] || [ "$MODE" = --asan-only ]; then
  echo "=== Address/UBSanitizer: memory hierarchy / updater tests ==="
  # Beyond plain `undefined`: float division by zero (not UB in IEEE754,
  # but almost always a bug in optimizer math) and explicit array-bounds
  # checks. `implicit-integer-sign-change` exists only in Clang's UBSan,
  # so probe the compiler rather than hard-coding it.
  SAN_CHECKS="address,undefined,float-divide-by-zero,bounds"
  if ${CXX:-c++} --version 2>/dev/null | grep -qi clang; then
    SAN_CHECKS="$SAN_CHECKS,implicit-integer-sign-change"
  fi
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=$SAN_CHECKS -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$SAN_CHECKS"
  cmake --build build-asan -j "$(nproc)" --target util_test mem_test \
    runtime_test
  ASAN_OPTIONS="detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$(pwd)/scripts/ubsan.supp" \
    ctest --test-dir build-asan --output-on-failure \
      -R 'util_test|mem_test|runtime_test'
fi

if [ "$MODE" = all ] || [ "$MODE" = --lockdep ]; then
  echo "=== lockdep: lock-order analysis + perturbation (DESIGN.md §15) ==="
  cmake -B build-lockdep -S . -DANGELPTM_LOCKDEP=ON
  cmake --build build-lockdep -j "$(nproc)"
  # Full suite under the instrumented mutexes: any lock-order cycle, rank
  # inversion, recursive or same-class nesting aborts the offending test.
  (cd build-lockdep && ctest --output-on-failure)
  # Negative leg, explicitly: the deliberate-ABBA tests must *detect* the
  # inversion (both stacks in the report) rather than deadlock.
  ./build-lockdep/tests/util_test --gtest_filter='Lockdep*'
  # Graph artifact: re-run a lock-heavy suite with the atexit dump armed;
  # CI uploads build-lockdep/lock_order.{dot,json}.
  ANGELPTM_LOCKDEP_DUMP=build-lockdep/lock_order \
    ./build-lockdep/tests/runtime_test --gtest_filter='LockFreeUpdater*'
  test -s build-lockdep/lock_order.dot
  test -s build-lockdep/lock_order.json
  echo "lockdep: graph dumped to build-lockdep/lock_order.{dot,json}"
  # Schedule-perturbation sweep: seeded yield/sleep injection at every
  # instrumented lock acquire and failpoint, over the concurrency-core
  # suites. Each seed is an independent, reproducible schedule; a failure
  # replays with the printed seed.
  for SEED in 1 2 3; do
    echo "--- perturbation sweep: ANGELPTM_PERTURB_SEED=$SEED ---"
    ANGELPTM_PERTURB_SEED=$SEED ANGELPTM_PERTURB_PROB=0.05 \
      ./build-lockdep/tests/runtime_test \
        --gtest_filter='LockFreeUpdater*:EngineTest.*:Checkpoint*'
    ANGELPTM_PERTURB_SEED=$SEED ANGELPTM_PERTURB_PROB=0.05 \
      ./build-lockdep/tests/mem_test \
        --gtest_filter='CopyEngineTest.*:SsdTierTest.*'
    ANGELPTM_PERTURB_SEED=$SEED ANGELPTM_PERTURB_PROB=0.05 \
      ./build-lockdep/tests/dist_test \
        --gtest_filter='ProcessGroupTest.*:ShardedDpTest.*'
  done
fi

if [ "$MODE" = all ] || [ "$MODE" = --perfbench ]; then
  echo "=== perfbench: end-to-end benchmark smoke (all workloads, both modes) ==="
  python3 perfbench/run.py --smoke
fi

echo "check.sh: OK"
