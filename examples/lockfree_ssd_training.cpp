// Extreme-scale scenario (Section 6.5): train with fp32 master states on a
// real file-backed SSD tier, comparing the synchronous flow (every step
// waits for the SSD-bound optimizer) against the Lock-Free Updating
// Mechanism (Algorithm 2) where updating and buffering threads run
// concurrently with compute.
//
//   build/examples/lockfree_ssd_training

#include <unistd.h>

#include <cstdio>
#include <string>

#include "train/mlp.h"
#include "train/trainer.h"
#include "util/units.h"

int main() {
  using namespace angelptm;

  train::SyntheticRegression dataset(32, 64, 8, 99);
  for (const bool lock_free : {false, true}) {
    mem::HierarchicalMemoryOptions memory_options;
    memory_options.page_bytes = 64 * 1024;
    memory_options.gpu_capacity_bytes = 8ull << 20;
    memory_options.cpu_capacity_bytes = 64ull << 20;
    memory_options.ssd_capacity_bytes = 64ull << 20;
    memory_options.ssd_path = "/tmp/angelptm_example_ssd_" +
                              std::to_string(::getpid()) +
                              (lock_free ? "_lf" : "_sync") + ".bin";
    // Emulate the paper's SSD bottleneck (3.5 GB/s vs terabytes of states)
    // at this model's scale.
    memory_options.ssd_bandwidth_bytes_per_sec = 200e6;
    mem::HierarchicalMemory memory(memory_options);
    core::Allocator allocator(&memory);

    const train::MlpModel model({{32, 256, 256, 8}});
    train::TrainerOptions options;
    options.optimizer.learning_rate = 3e-3;
    options.batch_size = 64;
    options.master_device = mem::DeviceKind::kSsd;
    options.lock_free = lock_free;
    options.seed = 7;
    train::Trainer trainer(&allocator, &model, options);
    ANGEL_CHECK_OK(trainer.Init());

    std::printf("=== %s ===\n",
                lock_free ? "Lock-Free Updating (Algorithm 2)"
                          : "Synchronous updating (SSD on critical path)");
    auto report = trainer.Train(dataset, 300);
    ANGEL_CHECK_OK(report.status());
    std::printf("  %.0f steps/s over %d steps (%.2f s wall)\n",
                report->steps_per_second, int(report->losses.size()),
                report->wall_seconds);
    std::printf("  train loss %.4f -> %.4f, validation %.4f\n",
                report->losses.front(), report->final_train_loss,
                report->validation_loss);
    const train::TelemetrySnapshot& telemetry = report->telemetry;
    std::printf("  optimizer: %llu updates applied, peak staleness %llu "
                "gradient batches\n",
                (unsigned long long)telemetry.updater.updates_applied,
                (unsigned long long)telemetry.max_pending_batches);
    std::printf("  staleness distribution: %s\n",
                telemetry.updater.staleness.Summary().c_str());
    std::printf("  real SSD traffic: %s read, %s written\n\n",
                util::FormatBytes(telemetry.ssd.bytes_read).c_str(),
                util::FormatBytes(telemetry.ssd.bytes_written).c_str());
  }
  std::printf("The lock-free run's compute never blocks on the SSD: the\n"
              "updating thread lags a few batches behind (bounded staleness)\n"
              "and the model converges to the same quality — the Table 6\n"
              "result, on real threads and a real file.\n");
  return 0;
}
