// Updater-contention microbenchmark across the four update rules
// (DESIGN.md §13): a compute thread offloads gradients and fetches buffered
// parameters against a *running* LockFreeUpdater while extra reader threads
// hammer the seqlock-published fp16 parameters (p'16), which is exactly the
// read-mostly hot path the lockless FetchParams redesign targets.
//
// Per rule it records, into BENCH_optimizer.json:
//   - wall time of the contended phase and updates applied during it;
//   - FetchParams latency distribution under contention (reader side of
//     the seqlock: no mutex, retry only across an overlapping publish);
//   - OffloadGrads latency distribution (the compute side must never
//     block on the updater — Algorithm 2's defining property);
//   - the updater's own counters (batches offloaded/applied, staleness).
//
// Honesty rules (DESIGN.md §11.5): every entry records the layer/element
// geometry and thread counts it actually ran with, and the reported
// latencies are microseconds from a monotonic clock, min-of-nothing — the
// full distribution is what matters for a contention bench.
//
// Usage: optimizer_bench [output.json] [elems_per_layer]
//   output.json defaults to BENCH_optimizer.json; elems_per_layer defaults
//   to 65536 (pass e.g. 4096 for a quick smoke run).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/allocator.h"
#include "core/lockfree_updater.h"
#include "core/optimizer/optimizer.h"
#include "mem/hierarchical_memory.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace angelptm {
namespace {

constexpr int kLayers = 4;
constexpr int kSteps = 60;
constexpr int kExtraReaders = 2;

struct RuleResult {
  std::string rule;
  size_t elems = 0;
  double wall_ms = 0.0;
  uint64_t reader_fetches = 0;
  core::LockFreeUpdater::Stats stats;
  obs::HistogramData fetch_us;
  obs::HistogramData offload_us;
};

uint64_t NowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

RuleResult RunRule(const std::string& rule, size_t elems) {
  mem::HierarchicalMemoryOptions memory_options;
  memory_options.page_bytes = 64 * 1024;
  memory_options.gpu_capacity_bytes = 8ull << 20;
  memory_options.cpu_capacity_bytes = 256ull << 20;
  mem::HierarchicalMemory memory(memory_options);
  core::Allocator allocator(&memory);

  core::LockFreeUpdater::Options options;
  options.optimizer.rule = rule;
  options.optimizer.learning_rate = 1e-3;
  core::LockFreeUpdater updater(&allocator, options);

  util::Rng rng(42);
  std::vector<float> init(elems);
  for (float& x : init) x = float(rng.NextGaussian());
  for (int l = 0; l < kLayers; ++l) {
    ANGEL_CHECK_OK(updater.AddLayer(init).status());
  }
  std::vector<float> grads(elems);
  for (float& g : grads) g = float(rng.NextGaussian() * 0.01);

  RuleResult result;
  result.rule = rule;
  result.elems = elems;

  updater.Start();
  // Extra readers: lock-free FetchParams churn concurrent with the
  // updating thread's seqlock publishes and the compute thread below.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_fetches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kExtraReaders; ++t) {
    readers.emplace_back([&stop, &reader_fetches, &updater] {
      std::vector<float> fetched;
      int layer = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ANGEL_CHECK_OK(updater.FetchParams(layer, &fetched));
        layer = (layer + 1) % kLayers;
        reader_fetches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<float> fetched;
  for (int step = 0; step < kSteps; ++step) {
    for (int l = 0; l < kLayers; ++l) {
      uint64_t t0 = NowUs();
      ANGEL_CHECK_OK(updater.OffloadGrads(l, grads));
      result.offload_us.Record(NowUs() - t0);
      t0 = NowUs();
      ANGEL_CHECK_OK(updater.FetchParams(l, &fetched));
      result.fetch_us.Record(NowUs() - t0);
    }
  }
  ANGEL_CHECK_OK(updater.DrainUpdates());
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  updater.Stop();
  result.reader_fetches = reader_fetches.load();
  result.stats = updater.Snapshot();
  return result;
}

}  // namespace
}  // namespace angelptm

int main(int argc, char** argv) {
  using namespace angelptm;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_optimizer.json";
  const size_t elems = argc > 2 ? size_t(std::atoll(argv[2])) : 65536;

  bench::PrintHeader(
      "Optimizer-rule contention microbenchmark",
      "SS4.3 Algorithm 2 (lock-free updating) x DESIGN.md SS13 (pluggable "
      "rules, seqlock-published p'16)");

  std::vector<RuleResult> results;
  for (const std::string& rule : core::RegisteredOptimizers()) {
    std::cout << "rule " << rule << ": " << kLayers << " layers x " << elems
              << " elems, " << kSteps << " steps, " << kExtraReaders
              << " extra readers..." << std::flush;
    results.push_back(RunRule(rule, elems));
    const RuleResult& r = results.back();
    std::cout << " " << r.wall_ms << " ms, fetch p95 "
              << r.fetch_us.Percentile(0.95) << " us, offload p95 "
              << r.offload_us.Percentile(0.95) << " us, "
              << r.stats.updates_applied << " updates\n";
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"optimizer_bench\",\n"
      << "  \"layers\": " << kLayers << ",\n"
      << "  \"elems_per_layer\": " << elems << ",\n"
      << "  \"steps\": " << kSteps << ",\n"
      << "  \"extra_readers\": " << kExtraReaders << ",\n"
      << "  \"host_cpus\": " << ::sysconf(_SC_NPROCESSORS_ONLN) << ",\n"
      << "  \"rules\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RuleResult& r = results[i];
    out << "    {\"rule\": \"" << r.rule << "\", \"wall_ms\": " << r.wall_ms
        << ", \"updates_applied\": " << r.stats.updates_applied
        << ", \"grad_batches_offloaded\": " << r.stats.grad_batches_offloaded
        << ", \"grad_batches_applied\": " << r.stats.grad_batches_applied
        << ", \"reader_fetches\": " << r.reader_fetches
        << ", \"backpressure_waits\": " << r.stats.backpressure_waits
        << ", \"fetch_us\": " << r.fetch_us.ToJson()
        << ", \"offload_us\": " << r.offload_us.ToJson()
        << ", \"staleness\": " << r.stats.staleness.ToJson()
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
