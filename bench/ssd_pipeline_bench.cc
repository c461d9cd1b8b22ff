// Measures the SSD paging pipeline (DESIGN.md §12) on a working set that
// exceeds the CPU arena: steady-state throughput of the trace-driven
// read-ahead path (PrefetchPlanner + ReadAheadExecutor + the async batched
// submission-queue SsdTier backend) against the synchronous per-page
// baseline (io_workers=0, fetch-on-demand, first-found eviction — the
// pre-§12 behavior). Writes BENCH_ssd_pipeline.json.
//
// Honesty rules (DESIGN.md §11.5):
//   - both modes run the *same* schedule, working set, frame size, emulated
//     per-op device latency and emulated per-use compute, so the speedup
//     isolates pipelining + coalescing + Belady eviction, nothing else;
//   - this container typically has one online CPU, so the async win comes
//     from overlapping emulated device latencies (sleeps) across the queue
//     workers and from coalescing adjacent frames into one preadv/pwritev —
//     exactly the mechanism that pays on real NVMe queue depths — not from
//     core parallelism; host_cpus is recorded so readers can see that;
//   - the warmup (trace-recording) step is excluded from steady-state
//     throughput in both modes;
//   - read-ahead hit/wait/coverage rates and the submission-queue depth and
//     batch-size stats are embedded in the JSON next to the throughput they
//     explain.
//
// The full run enforces the §12 acceptance bar: async steady-state
// throughput must be >= 2x the sync baseline, else exit non-zero so CI
// catches a regressed pipeline.
//
// Usage: ssd_pipeline_bench [output.json] [--smoke]
//   output.json defaults to BENCH_ssd_pipeline.json in the working
//   directory; --smoke shrinks the config for CI and skips the 2x guard.

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "mem/prefetch_planner.h"
#include "mem/read_ahead.h"

namespace angelptm {
namespace {

struct Config {
  size_t frame_bytes = 64 * 1024;
  uint64_t pages = 192;      // Working set: pages * frame_bytes.
  uint64_t cpu_frames = 96;  // Arena: half the working set -> constant paging.
  int steady_steps = 4;
  int io_op_latency_us = 300;  // Emulated device latency per syscall attempt.
  int compute_us = 100;        // Emulated compute per scheduled use.
  size_t window = 32;
  size_t io_workers = 4;  // Async mode; sync mode always uses 0.
  size_t io_coalesce = 8;
  size_t copy_threads = 8;  // Async mode; sync mode always uses 1.
};

Config SmokeConfig() {
  Config c;
  c.pages = 48;
  c.cpu_frames = 24;
  c.steady_steps = 2;
  c.io_op_latency_us = 100;
  c.compute_us = 50;
  c.window = 16;
  return c;
}

/// Forward 0..n-1 then backward n-1..0 — one training step's layer visits.
std::vector<uint64_t> SawtoothOrder(uint64_t pages) {
  std::vector<uint64_t> order;
  for (uint64_t l = 0; l < pages; ++l) order.push_back(l);
  for (uint64_t l = pages; l > 0; --l) order.push_back(l - 1);
  return order;
}

struct ModeResult {
  std::string name;
  double warmup_ms = 0.0;
  double steady_ms = 0.0;
  uint64_t steady_uses = 0;
  mem::ReadAheadExecutor::Stats ra;       // Steady-state deltas only.
  mem::PrefetchPlanner::Stats planner;    // Whole-run totals.
  mem::SsdTier::Stats ssd;                // Whole-run totals.
  bool ok = true;
  std::string error;

  double UsesPerSec() const {
    return steady_ms > 0.0 ? steady_uses / steady_ms * 1e3 : 0.0;
  }
  double MbPerSec(size_t frame_bytes) const {
    return UsesPerSec() * double(frame_bytes) / 1e6;
  }
  double HitRate() const {
    const uint64_t uses = ra.hits + ra.waits;
    return uses > 0 ? double(ra.hits) / double(uses) : 0.0;
  }
  double Coverage() const {
    const uint64_t uses = ra.hits + ra.waits;
    return uses > 0 ? double(ra.covered) / double(uses) : 0.0;
  }
};

mem::ReadAheadExecutor::Stats Delta(const mem::ReadAheadExecutor::Stats& now,
                                    const mem::ReadAheadExecutor::Stats& base) {
  mem::ReadAheadExecutor::Stats d;
  d.hits = now.hits - base.hits;
  d.waits = now.waits - base.waits;
  d.covered = now.covered - base.covered;
  d.evictions = now.evictions - base.evictions;
  d.sync_fetches = now.sync_fetches - base.sync_fetches;
  d.failed_moves = now.failed_moves - base.failed_moves;
  return d;
}

/// Runs one mode end to end: stage the working set to SSD, one warmup step
/// (recording the trace when `async_mode`), then timed steady-state steps.
ModeResult RunMode(bool async_mode, const Config& cfg) {
  ModeResult result;
  result.name = async_mode ? "async" : "sync";

  mem::HierarchicalMemoryOptions mo;
  mo.page_bytes = cfg.frame_bytes;
  mo.gpu_capacity_bytes = 2 * cfg.frame_bytes;
  mo.cpu_capacity_bytes = cfg.cpu_frames * cfg.frame_bytes;
  mo.ssd_capacity_bytes = 2 * cfg.pages * cfg.frame_bytes;
  mo.ssd_path = "/tmp/angelptm_ssd_pipeline_" + result.name + "_" +
                std::to_string(::getpid()) + ".bin";
  mo.ssd_io_workers = async_mode ? cfg.io_workers : 0;
  mo.ssd_io_coalesce = cfg.io_coalesce;
  // Staging below also pays this, but only steady-state steps are timed.
  mo.ssd_io_op_latency_us = cfg.io_op_latency_us;

  mem::HierarchicalMemory memory(mo);
  mem::CopyEngine engine(&memory, async_mode ? cfg.copy_threads : 1);
  mem::PrefetchPlanner planner;
  mem::ReadAheadExecutor::Options ro;
  ro.window = cfg.window;
  ro.max_resident = cfg.cpu_frames - 8;
  mem::ReadAheadExecutor executor(&memory, &engine, &planner, ro);

  // Stage the working set: page i filled with a recognizable byte, parked on
  // SSD. Sequential staging gives sequential SSD frame offsets, which is
  // what real layer packing produces and what coalescing exploits.
  std::vector<mem::Page*> pages;
  for (uint64_t i = 0; i < cfg.pages; ++i) {
    auto page = memory.CreatePage(mem::DeviceKind::kCpu);
    if (!page.ok()) {
      result.ok = false;
      result.error = page.status().ToString();
      return result;
    }
    std::memset((*page)->data_ptr(), static_cast<int>((i + 1) & 0xFF),
                cfg.frame_bytes);
    if (util::Status s = memory.MovePageSync(*page, mem::DeviceKind::kSsd);
        !s.ok()) {
      result.ok = false;
      result.error = s.ToString();
      return result;
    }
    executor.Bind(i, *page);
    pages.push_back(*page);
  }

  const std::vector<uint64_t> order = SawtoothOrder(cfg.pages);
  const auto compute = std::chrono::microseconds(cfg.compute_us);
  auto run_step = [&]() -> util::Status {
    for (const uint64_t key : order) {
      auto page = executor.Acquire(key);
      if (!page.ok()) return page.status();
      // Touch the page (paranoia: a wrong byte means the pipeline broke)
      // then emulate the layer's compute.
      if ((*page)->data_ptr()[0] !=
          std::byte(static_cast<unsigned char>((key + 1) & 0xFF))) {
        return util::Status::Internal("page " + std::to_string(key) +
                                      " corrupted in flight");
      }
      std::this_thread::sleep_for(compute);
    }
    return util::Status::OK();
  };

  // Warmup step: fetch-on-demand in both modes; only async trains the
  // planner from the recorded trace (sync is the pre-§12 baseline).
  const auto warmup_start = std::chrono::steady_clock::now();
  // Both modes record the trace and fetch on demand, exactly like the
  // engine's traced first iteration; only async mode then trains on it.
  for (const uint64_t key : order) {
    planner.RecordAccess(key);
    auto page = executor.Acquire(key);
    if (!page.ok()) {
      result.ok = false;
      result.error = page.status().ToString();
      return result;
    }
    std::this_thread::sleep_for(compute);
  }
  if (async_mode) planner.FinishWarmup();
  const auto warmup_end = std::chrono::steady_clock::now();
  result.warmup_ms =
      std::chrono::duration<double, std::milli>(warmup_end - warmup_start)
          .count();

  // Steady state: timed.
  const mem::ReadAheadExecutor::Stats before = executor.Snapshot();
  const auto steady_start = std::chrono::steady_clock::now();
  for (int step = 0; step < cfg.steady_steps; ++step) {
    executor.BeginStep();
    if (util::Status s = run_step(); !s.ok()) {
      result.ok = false;
      result.error = s.ToString();
      return result;
    }
  }
  const auto steady_end = std::chrono::steady_clock::now();
  if (util::Status s = executor.Drain(); !s.ok()) {
    result.ok = false;
    result.error = s.ToString();
    return result;
  }

  result.steady_ms =
      std::chrono::duration<double, std::milli>(steady_end - steady_start)
          .count();
  result.steady_uses = uint64_t(cfg.steady_steps) * order.size();
  result.ra = Delta(executor.Snapshot(), before);
  result.planner = planner.Snapshot();
  result.ssd = memory.ssd()->Snapshot();
  return result;
}

void PrintMode(const ModeResult& m, const Config& cfg) {
  std::cout << "  " << std::left << std::setw(6) << m.name << std::fixed
            << std::setprecision(1) << "warmup " << std::setw(9)
            << m.warmup_ms << " steady " << std::setw(9) << m.steady_ms
            << " ms  " << std::setprecision(0) << std::setw(6)
            << m.UsesPerSec() << " pages/s  " << std::setprecision(1)
            << m.MbPerSec(cfg.frame_bytes) << " MB/s  hit-rate "
            << std::setprecision(3) << m.HitRate() << "  coverage "
            << m.Coverage() << "\n";
  std::cout << "         readahead: hits=" << m.ra.hits
            << " waits=" << m.ra.waits << " covered=" << m.ra.covered
            << " evictions=" << m.ra.evictions
            << " sync_fetches=" << m.ra.sync_fetches
            << " failed=" << m.ra.failed_moves << "\n";
  std::cout << "         ssd: queued=" << m.ssd.queued_requests
            << " batches=" << m.ssd.io_batches
            << " max_queue_depth=" << m.ssd.max_queue_depth
            << " read=" << m.ssd.bytes_read / 1024 / 1024
            << "MiB written=" << m.ssd.bytes_written / 1024 / 1024
            << "MiB retries=" << m.ssd.io_retries << "\n";
}

void JsonMode(std::ostream& out, const ModeResult& m, const Config& cfg) {
  out << "{\n"
      << "    \"warmup_ms\": " << m.warmup_ms << ",\n"
      << "    \"steady_ms\": " << m.steady_ms << ",\n"
      << "    \"steady_uses\": " << m.steady_uses << ",\n"
      << "    \"pages_per_sec\": " << m.UsesPerSec() << ",\n"
      << "    \"mb_per_sec\": " << m.MbPerSec(cfg.frame_bytes) << ",\n"
      << "    \"readahead_hit_rate\": " << m.HitRate() << ",\n"
      << "    \"readahead_coverage\": " << m.Coverage() << ",\n"
      << "    \"readahead\": {\"hits\": " << m.ra.hits
      << ", \"waits\": " << m.ra.waits << ", \"covered\": " << m.ra.covered
      << ", \"evictions\": " << m.ra.evictions
      << ", \"sync_fetches\": " << m.ra.sync_fetches
      << ", \"failed_moves\": " << m.ra.failed_moves << "},\n"
      << "    \"planner\": {\"order_length\": " << m.planner.order_length
      << ", \"predicted_hits\": " << m.planner.predicted_hits
      << ", \"mispredicts\": " << m.planner.mispredicts << "},\n"
      << "    \"ssd\": {\"queued_requests\": " << m.ssd.queued_requests
      << ", \"io_batches\": " << m.ssd.io_batches
      << ", \"max_queue_depth\": " << m.ssd.max_queue_depth
      << ", \"avg_batch_frames\": "
      << (m.ssd.io_batches > 0
              ? double(m.ssd.queued_requests) / double(m.ssd.io_batches)
              : 0.0)
      << ", \"bytes_read\": " << m.ssd.bytes_read
      << ", \"bytes_written\": " << m.ssd.bytes_written
      << ", \"io_retries\": " << m.ssd.io_retries << "}\n"
      << "  }";
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_ssd_pipeline.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown flag \"" << arg
                << "\"\nusage: ssd_pipeline_bench [output.json] [--smoke]\n";
      return 2;
    } else {
      out_path = arg;
    }
  }

  // The env overrides exist so check.sh can repoint whole *test* binaries at
  // the async backend; here they would silently distort the sync-vs-async
  // comparison, so the bench pins its own knobs.
  for (const char* var :
       {"ANGELPTM_SSD_IO_WORKERS", "ANGELPTM_SSD_IO_QUEUE_DEPTH",
        "ANGELPTM_SSD_IO_COALESCE", "ANGELPTM_SSD_IO_OP_LATENCY_US"}) {
    ::unsetenv(var);
  }

  const Config cfg = smoke ? SmokeConfig() : Config{};
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t uses_per_step = 2 * cfg.pages;

  bench::PrintHeader(
      "SSD paging pipeline: trace-driven read-ahead vs synchronous baseline",
      "DESIGN.md §12 / Angel-PTM §5.3 (SSD tier under the Page abstraction)");
  std::cout << "config: " << cfg.pages << " pages x " << cfg.frame_bytes / 1024
            << " KiB (working set "
            << cfg.pages * cfg.frame_bytes / 1024 / 1024 << " MiB), CPU arena "
            << cfg.cpu_frames << " frames ("
            << cfg.cpu_frames * cfg.frame_bytes / 1024 / 1024
            << " MiB), device latency " << cfg.io_op_latency_us
            << "us/op, compute " << cfg.compute_us << "us/use, "
            << cfg.steady_steps << " steady steps of " << uses_per_step
            << " uses, host_cpus=" << host_cpus << (smoke ? ", SMOKE" : "")
            << "\n\n";

  const ModeResult sync_mode = RunMode(/*async_mode=*/false, cfg);
  if (!sync_mode.ok) {
    std::cerr << "sync mode failed: " << sync_mode.error << "\n";
    return 1;
  }
  PrintMode(sync_mode, cfg);
  const ModeResult async_mode = RunMode(/*async_mode=*/true, cfg);
  if (!async_mode.ok) {
    std::cerr << "async mode failed: " << async_mode.error << "\n";
    return 1;
  }
  PrintMode(async_mode, cfg);

  const double speedup = async_mode.steady_ms > 0.0
                             ? sync_mode.steady_ms / async_mode.steady_ms
                             : 0.0;
  const bool speedup_ok = smoke || speedup >= 2.0;
  std::cout << "\nSteady-state speedup (async over sync): " << std::fixed
            << std::setprecision(2) << speedup << "x"
            << (smoke ? " (smoke run: 2x guard not enforced)" : "") << "\n";

  std::ofstream out(out_path);
  out << std::setprecision(6) << std::fixed;
  out << "{\n";
  out << "  \"bench\": \"ssd_pipeline_bench\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"host_cpus\": " << host_cpus << ",\n";
  out << "  \"config\": {\"frame_bytes\": " << cfg.frame_bytes
      << ", \"pages\": " << cfg.pages
      << ", \"cpu_frames\": " << cfg.cpu_frames
      << ", \"steady_steps\": " << cfg.steady_steps
      << ", \"uses_per_step\": " << uses_per_step
      << ", \"io_op_latency_us\": " << cfg.io_op_latency_us
      << ", \"compute_us\": " << cfg.compute_us
      << ", \"window\": " << cfg.window
      << ", \"io_workers\": " << cfg.io_workers
      << ", \"io_coalesce\": " << cfg.io_coalesce
      << ", \"copy_threads\": " << cfg.copy_threads << "},\n";
  out << "  \"sync\": ";
  JsonMode(out, sync_mode, cfg);
  out << ",\n  \"async\": ";
  JsonMode(out, async_mode, cfg);
  out << ",\n";
  out << "  \"speedup\": " << speedup << ",\n";
  out << "  \"speedup_ok\": " << (speedup_ok ? "true" : "false") << "\n";
  out << "}\n";
  if (!out.flush()) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "Wrote " << out_path << "\n";

  if (!speedup_ok) {
    std::cerr << "REGRESSION: async steady-state only " << speedup
              << "x over sync (bar is 2x)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace angelptm

int main(int argc, char** argv) { return angelptm::Main(argc, argv); }
