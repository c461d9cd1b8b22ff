// Benchmark binary: runs one workload once, either the end-to-end
// measurement (--trace 0) or the traced per-layer run (--trace 1), checks
// its outputs, and prints a stamp line and then the result as the last line
// of stdout. run.py builds it and drives it; see README.md.
//
//   angelptm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --scratch DIR [--smoke]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "train/simd/dispatch.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace angelptm::perfbench {
namespace {

// Compute-pool threads: the direct workload leaves the fourth core to the
// calling thread, which ParallelFor also runs chunks on; the paged workload
// keeps the library default of one pool thread per core.
const Workload kWorkloads[] = {
    {"paged_lockfree_ssd", 4, PagedRep, PagedTraced},
    {"direct_sync_longseq", 3, DirectRep, DirectTraced},
    {"zero3_sockets", 1, Zero3Rep, Zero3Traced},
};

/// A run repeats fresh set-ups until --seconds is spent, within these. The
/// first rep warms up (page faults, allocator arenas, kernel scratch) and
/// is checked but left out of the medians.
constexpr int kWarmupReps = 1;
constexpr int kMinTimedReps = 3;
constexpr int kMaxReps = 25;

size_t HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return size_t(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss is KiB.
}

std::string ResultJson(bool correct, int attempted, const Metrics& metrics) {
  attempted = std::max(attempted, 1);
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted
      << ", \"failed\": " << (correct ? 0 : attempted)
      << ", \"metrics\": " << metrics.ToJson() << "}";
  return out.str();
}

/// The end-to-end measurement: fresh set-up + timed Train() repeated until
/// the budget is spent; medians over the timed reps.
std::string RunEndToEnd(const Workload& workload, const RunConfig& config,
                        Checks* checks, int* attempted) {
  std::vector<double> setup_s, samples_per_s, valid_loss;
  const int min_reps = kWarmupReps + (config.smoke ? 1 : kMinTimedReps);
  const int max_reps = config.smoke ? min_reps : kMaxReps;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < max_reps; ++rep) {
    Rep result;
    const util::Status status =
        workload.run_rep(config, rep, &result, checks);
    *attempted += result.steps;
    if (!checks->ExpectOk(status, "rep " + std::to_string(rep))) break;
    std::cerr << "rep " << rep << (rep < kWarmupReps ? " (warm-up)" : "")
              << ": setup_s " << result.setup_s << ", samples_per_s "
              << result.samples_per_s() << ", valid_loss "
              << result.valid_loss << ", first_loss " << result.first_loss
              << "\n";
    if (rep >= kWarmupReps) {
      setup_s.push_back(result.setup_s);
      samples_per_s.push_back(result.samples_per_s());
      valid_loss.push_back(result.valid_loss);
    }
    if (rep + 1 >= min_reps && SecondsSince(start) >= config.seconds) break;
  }
  Metrics metrics(EndToEndSpecs());
  metrics.Set("samples_per_s", Median(samples_per_s));
  metrics.Set("valid_loss", Median(valid_loss));
  metrics.Set("setup_s", Median(setup_s));
  metrics.Set("peak_rss_mb", PeakRssMb());
  return ResultJson(checks->ok(), *attempted, metrics);
}

/// The traced run: warm-up and reference reps through the product entry
/// point (untraced), then the workload's traced steps.
std::string RunTraced(const Workload& workload, const RunConfig& config,
                      Checks* checks, int* attempted) {
  TracedResult traced;
  Rep reference;
  bool ok = true;
  for (int rep = 0; ok && rep <= kWarmupReps; ++rep) {
    reference = Rep();
    ok = checks->ExpectOk(workload.run_rep(config, rep, &reference, checks),
                          "rep " + std::to_string(rep));
    traced.steps += reference.steps;
  }
  if (ok) {
    checks->ExpectOk(
        workload.run_traced(config, reference, &traced, checks),
        "traced run");
  }
  *attempted = traced.steps;
  return ResultJson(checks->ok(), *attempted, traced.metrics);
}

int Usage() {
  std::cerr << "usage: angelptm_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--smoke]\n"
               "workloads:";
  for (const Workload& workload : kWorkloads) std::cerr << " " << workload.name;
  std::cerr << "\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (config.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr || config.seconds <= 0 || config.scratch.empty()) {
    return Usage();
  }

  // Pin the compute pool before any kernel runs.
  const size_t host_cpus = HostCpus();
  const size_t threads = std::min(workload->compute_threads, host_cpus);
  util::ThreadPool pool(threads);
  util::SetComputePoolOverride(&pool);

  std::cout << "{\"stamp\": {\"workload\": \"" << workload->name
            << "\", \"seed\": " << config.seed
            << ", \"seconds\": " << config.seconds
            << ", \"trace\": " << (config.trace ? 1 : 0)
            << ", \"smoke\": " << (config.smoke ? "true" : "false")
            << ", \"host_cpus\": " << host_cpus
            << ", \"compute_threads\": " << threads
            << ", \"simd_path\": \"" << simd::IsaPathName(simd::Dispatch())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}}"
            << std::endl;

  Checks checks;
  int attempted = 0;
  const std::string result =
      config.trace ? RunTraced(*workload, config, &checks, &attempted)
                   : RunEndToEnd(*workload, config, &checks, &attempted);
  util::SetComputePoolOverride(nullptr);
  for (const std::string& failure : checks.failures()) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
  }
  std::cout << result << std::endl;
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace angelptm::perfbench

int main(int argc, char** argv) {
  return angelptm::perfbench::Main(argc, argv);
}
