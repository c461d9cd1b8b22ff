#!/usr/bin/env python3
"""End-to-end training benchmark for the Angel-PTM reproduction.

Builds the benchmark package (this directory, which compiles ../src), runs
one workload in a fresh scratch directory, and prints a stamp line and then
the result as the last line of stdout:

  python3 perfbench/run.py --workload paged_lockfree_ssd --seed 1 \
      --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separately traced run. --seconds defaults to BENCHMARK.json's
run_seconds. --workload all runs every workload in turn.
--smoke runs every workload (or the one named) for a few steps in both
modes with every output check: the benchmark's own test. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "angelptm_perfbench")
RUN_ROOT = ".bench_run"
WORKLOADS = ["paged_lockfree_ssd", "direct_sync_longseq", "zero3_sockets"]
BUILD_TYPE = "RelWithDebInfo"
# A run that outlives this is killed and reported as failed.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under src/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_build_step(command):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            env=env)
    if result.returncode != 0:
        raise BenchError("build step failed: " + " ".join(command))


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json declares for this mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark_spec()[key]}


def failed_result(trace):
    """The result line of a run that produced none of its own."""
    metrics = {name: {"value": 0, "unit": unit}
               for name, unit in declared_metrics(trace).items()}
    return json.dumps({"correct": False, "attempted": 1, "failed": 1,
                       "metrics": metrics})


def child_env():
    # ANGELPTM_* variables override library options (SSD workers, SIMD
    # path, compute threads, fault injection, tracing): never inherit them.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ANGELPTM_")}


def run_once(workload, seed, seconds, trace, smoke):
    """Runs the binary once; returns (stamp, result line, returncode).
    A run killed at RUN_TIMEOUT_S gets no stamp and a failed result."""
    os.makedirs(RUN_ROOT, exist_ok=True)
    scratch = os.path.join(RUN_ROOT, "%d-%s-%d" % (os.getpid(), workload,
                                                   trace))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--scratch", scratch]
    if smoke:
        command.append("--smoke")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None, failed_result(trace), 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < 2:
        raise BenchError("%s printed no result (exit %d)"
                         % (workload, proc.returncode))
    stamp = json.loads(lines[0])["stamp"]
    validate(json.loads(lines[-1]), trace)
    return stamp, lines[-1], proc.returncode


def validate(result, trace):
    """The result line must match the contract and BENCHMARK.json."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError("result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise BenchError("attempted must be a positive integer")
    declared = declared_metrics(trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        raise BenchError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(reported) ^ set(declared)))


def stamped(stamp):
    """The binary's stamp plus the commit measured."""
    return dict(stamp or {}, commit=git_commit())


def summarize(workload, trace, result):
    log("%s (trace %d): correct=%s attempted=%d failed=%d"
        % (workload, trace, result["correct"], result["attempted"],
           result["failed"]))
    for name, metric in result["metrics"].items():
        log("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measurement budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="few steps per workload, both modes, all checks")
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        seconds = args.seconds or benchmark_spec()["run_seconds"]
        build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        modes = [0, 1] if args.smoke else [args.trace]
        ok = True
        for workload in workloads:
            for trace in modes:
                stamp, line, code = run_once(
                    workload, args.seed, seconds, trace, args.smoke)
                result = json.loads(line)
                ok = ok and code == 0 and result["correct"]
                if len(workloads) > 1 or args.smoke:
                    summarize(workload, trace, result)
                print(json.dumps({"stamp": stamped(stamp)}))
                print(line, flush=True)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("error: %s" % error)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
