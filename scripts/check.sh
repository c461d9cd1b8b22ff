#!/bin/sh
# Per-PR check: the tier-1 verify (full build + ctest) plus sanitizer and
# fault-injection configurations:
#
#   * ThreadSanitizer over the concurrency-sensitive tests (parallel
#     kernels, ParallelFor, thread pool, lock-free updater, and the obs::
#     metrics registry / span tracer hot paths).
#   * AddressSanitizer+UBSan over the memory-hierarchy and updater tests,
#     which exercise raw pread/pwrite buffers and page frame arithmetic.
#   * A fault-injection pass: the suites re-run with ANGELPTM_FAULT_SITES
#     armed, proving the env-driven failpoint path works and that transient
#     I/O faults are absorbed by the SsdTier retry policy (see DESIGN.md §7).
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
#     GEMM-variant, attention and fp16-conversion guards.
#
#   * An SSD pipeline pass (DESIGN.md §12): the pipeline bench runs in
#     smoke mode, then the mem and engine suites re-run with
#     ANGELPTM_SSD_IO_WORKERS forcing the async submission-queue backend,
#     including the fault-injection suite with a transient fault armed —
#     proving the retry policy still fires per attempt behind the queue.
#
#   * An optimizer pass (DESIGN.md §13): the golden suite for every
#     registered update rule (Adam bitwise vs the SIMD kernel, SGDM/LAMB/
#     Adafactor vs naive references, thread-count invariance), the seqlock
#     torn-read stress, the checkpoint v3 <-> v2 round-trip tests, and a
#     smoke run of the updater-contention bench across all rules.
#
#   * A dist pass (DESIGN.md §14): the socket-collective property tests,
#     shard-checkpoint suite, and the fork/exec multi-process tests (4-rank
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
#   [--tier1-only|--tsan-only|--asan-only|--trace-smoke|--lint|--simd|--ssd|
#    --optimizers|--dist|--lockdep|--perfbench]
set -e
cd "$(dirname "$0")/.."

MODE="${1:-all}"

if [ "$MODE" = all ] || [ "$MODE" = --tier1-only ]; then
  echo "=== tier-1: build + full test suite ==="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest --output-on-failure -j)

  echo "=== fault injection: env-driven failpoints ==="
  # The env probe proves ANGELPTM_FAULT_SITES is parsed and armed end to end.
  ANGELPTM_FAULT_SITES="check.env_probe=always" \
    ./build/tests/util_test --gtest_filter='FaultInjectorTest.EnvSpec*'
  # A transient fault on the first pwrite of every tier: the retry policy
  # must absorb it and the whole mem suite still passes.
  ANGELPTM_FAULT_SITES="ssd.pwrite=nth:1" ./build/tests/mem_test
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
  if [ ! -x build/tests/train_test ] || [ ! -x build/tests/core_test ] || \
     [ ! -x build/tests/util_test ] || [ ! -x build/bench/kernel_bench ]; then
    cmake -B build -S .
    cmake --build build -j --target train_test core_test util_test \
      kernel_bench
  fi
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
  ./build/bench/kernel_bench build/BENCH_kernels_smoke.json 256
fi

if [ "$MODE" = all ] || [ "$MODE" = --ssd ]; then
  echo "=== SSD pipeline: smoke bench + suites on the async backend ==="
  if [ ! -x build/bench/ssd_pipeline_bench ] || \
     [ ! -x build/tests/mem_test ] || [ ! -x build/tests/runtime_test ]; then
    cmake -B build -S .
    cmake --build build -j --target ssd_pipeline_bench mem_test runtime_test
  fi
  # Smoke config: tiny working set, no 2x guard (the full bench enforces
  # it); this proves the read-ahead pipeline runs end to end on this host.
  ./build/bench/ssd_pipeline_bench build/BENCH_ssd_pipeline_smoke.json --smoke
  # The whole mem suite (incl. tests written against the sync default) on
  # the async backend: the env override beats every in-test io_workers
  # setting, so every ReadFrame/WriteFrame goes through the queue.
  ANGELPTM_SSD_IO_WORKERS=4 ./build/tests/mem_test
  # Fault injection against the queue: a transient fault on the first
  # pwrite of every tier must be absorbed by the per-attempt retry policy
  # even when the attempt runs on a queue worker inside a coalesced batch.
  ANGELPTM_SSD_IO_WORKERS=4 ANGELPTM_FAULT_SITES="ssd.pwrite=nth:1" \
    ./build/tests/mem_test --gtest_filter='MemFaultInjectionTest.*'
  # The engine paths (trace -> planner -> Belady eviction) on the async
  # backend, including the failed-prefetch accounting regression test.
  ANGELPTM_SSD_IO_WORKERS=4 ./build/tests/runtime_test \
    --gtest_filter='EngineTest.*'
fi

if [ "$MODE" = all ] || [ "$MODE" = --optimizers ]; then
  echo "=== optimizers: golden rules, seqlock stress, ckpt v3, bench ==="
  if [ ! -x build/tests/core_test ] || [ ! -x build/tests/util_test ] || \
     [ ! -x build/tests/runtime_test ] || \
     [ ! -x build/bench/optimizer_bench ]; then
    cmake -B build -S .
    cmake --build build -j --target core_test util_test runtime_test \
      optimizer_bench
  fi
  # Every registered rule against its reference (Adam must be bitwise
  # identical to the SIMD kernel path) plus thread-count invariance.
  ./build/tests/core_test --gtest_filter='OptimizerTest.*'
  # The seqlock torn-read stress: concurrent writers never expose a
  # mixed-generation payload to the lock-free readers.
  ./build/tests/util_test --gtest_filter='SeqLock*'
  # Checkpoint v3 (self-describing slots) round-trips, still loads v2
  # as Adam, and rejects a rule mismatch instead of mixing state.
  ./build/tests/runtime_test --gtest_filter='CheckpointTest.*'
  # Contention bench in smoke geometry: all rules must run end to end
  # with extra lock-free readers hammering the parameter mirror.
  ./build/bench/optimizer_bench build/BENCH_optimizer_smoke.json 4096
fi

if [ "$MODE" = all ] || [ "$MODE" = --dist ]; then
  echo "=== dist: multi-process ZeRO over sockets (DESIGN.md §14) ==="
  if [ ! -x build/tests/dist_test ] || [ ! -x build/tools/angel_worker ]; then
    cmake -B build -S .
    cmake --build build -j --target dist_test angel_worker
  fi
  # The full dist suite: socket-collective property tests (50+ random
  # layouts bitwise vs the in-process Communicator), shard checkpoints,
  # and the fork/exec multi-process tests (4-rank bitwise match plus the
  # SIGKILL-one-rank recovery drill).
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
  if [ ! -x build/examples/quickstart ]; then
    cmake -B build -S .
    cmake --build build -j --target quickstart
  fi
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
  cmake --build build-tsan -j --target util_test obs_test train_test \
    runtime_test
  # Deterministically exercise the parallel code paths even on small CI
  # hosts: the kernels split work as if 4 workers were present.
  ANGELPTM_COMPUTE_THREADS=4 \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
      -R 'util_test|obs_test|train_test|runtime_test'
  # The crash/restart suite once more, explicitly: CheckpointManager::Save
  # quiesces a *running* lock-free updater layer by layer, and the recovery
  # loop tears threads down mid-error — any lock the snapshot path misses
  # surfaces here (see DESIGN.md §9).
  # The suite is parameterized over both step backends (direct and paged),
  # so its names carry a prefix: Backends/RecoveryTest.<case>/<backend>.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/train_test --gtest_filter='*RecoveryTest.*'
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/runtime_test \
      --gtest_filter='CheckpointTest.*:CheckpointManagerTest.*'
  # Stop() with updates in flight: every install the updating thread queued
  # must land, in order, before the buffering thread exits. The race this
  # guards lost about one run in five before it was fixed, so repeat it.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/runtime_test --gtest_repeat=200 \
      --gtest_filter='LockFreeUpdaterTest.StopLeavesNoParameterInstallBehind'
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
  cmake --build build-asan -j --target util_test mem_test runtime_test
  ASAN_OPTIONS="detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$(pwd)/scripts/ubsan.supp" \
    ctest --test-dir build-asan --output-on-failure \
      -R 'util_test|mem_test|runtime_test'
fi

if [ "$MODE" = all ] || [ "$MODE" = --lockdep ]; then
  echo "=== lockdep: lock-order analysis + perturbation (DESIGN.md §15) ==="
  cmake -B build-lockdep -S . -DANGELPTM_LOCKDEP=ON
  cmake --build build-lockdep -j
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
        --gtest_filter='LockFreeUpdater*:EngineTest.*'
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
