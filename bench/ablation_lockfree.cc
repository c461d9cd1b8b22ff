// Google-benchmark micro-benchmarks of the real lock-free updating
// mechanism: per-step cost of the compute loop under synchronous vs
// lock-free updating, with CPU-resident and SSD-resident master states.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "train/mlp.h"
#include "train/trainer.h"

namespace {

using namespace angelptm;

struct Harness {
  std::unique_ptr<mem::HierarchicalMemory> memory;
  std::unique_ptr<core::Allocator> allocator;
  std::unique_ptr<train::MlpModel> model;
  std::unique_ptr<train::Trainer> trainer;
  train::SyntheticRegression dataset{16, 32, 4, 99};
};

std::unique_ptr<Harness> MakeHarness(bool lock_free,
                                     mem::DeviceKind master_device,
                                     double ssd_throttle,
                                     const std::string& tag) {
  auto harness = std::make_unique<Harness>();
  mem::HierarchicalMemoryOptions memory_options;
  memory_options.page_bytes = 64 * 1024;
  memory_options.gpu_capacity_bytes = 8ull << 20;
  memory_options.cpu_capacity_bytes = 64ull << 20;
  memory_options.ssd_capacity_bytes = 64ull << 20;
  memory_options.ssd_path = "/tmp/angelptm_bench_lf_" + tag + "_" +
                            std::to_string(::getpid()) + ".bin";
  memory_options.ssd_bandwidth_bytes_per_sec = ssd_throttle;
  harness->memory =
      std::make_unique<mem::HierarchicalMemory>(memory_options);
  harness->allocator =
      std::make_unique<core::Allocator>(harness->memory.get());

  harness->model =
      std::make_unique<train::MlpModel>(train::MlpConfig{{16, 64, 64, 4}});
  train::TrainerOptions options;
  options.optimizer.learning_rate = 3e-3;
  options.batch_size = 32;
  options.lock_free = lock_free;
  options.master_device = master_device;
  options.seed = 7;
  harness->trainer = std::make_unique<train::Trainer>(
      harness->allocator.get(), harness->model.get(), options);
  ANGEL_CHECK_OK(harness->trainer->Init());
  return harness;
}

void RunSteps(benchmark::State& state, Harness* harness) {
  // Each benchmark iteration = a chunk of real training steps.
  constexpr int kStepsPerIteration = 20;
  for (auto _ : state) {
    auto report =
        harness->trainer->Train(harness->dataset, kStepsPerIteration);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(report->final_train_loss);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kStepsPerIteration);
}

void BM_TrainStep_Synchronous(benchmark::State& state) {
  auto harness =
      MakeHarness(false, mem::DeviceKind::kCpu, 0.0, "sync");
  RunSteps(state, harness.get());
}
BENCHMARK(BM_TrainStep_Synchronous)->Unit(benchmark::kMillisecond);

void BM_TrainStep_LockFree(benchmark::State& state) {
  auto harness = MakeHarness(true, mem::DeviceKind::kCpu, 0.0, "lf");
  RunSteps(state, harness.get());
}
BENCHMARK(BM_TrainStep_LockFree)->Unit(benchmark::kMillisecond);

void BM_TrainStep_SynchronousSsdThrottled(benchmark::State& state) {
  auto harness =
      MakeHarness(false, mem::DeviceKind::kSsd, 80e6, "sync_ssd");
  RunSteps(state, harness.get());
}
BENCHMARK(BM_TrainStep_SynchronousSsdThrottled)
    ->Unit(benchmark::kMillisecond);

void BM_TrainStep_LockFreeSsdThrottled(benchmark::State& state) {
  auto harness =
      MakeHarness(true, mem::DeviceKind::kSsd, 80e6, "lf_ssd");
  RunSteps(state, harness.get());
}
BENCHMARK(BM_TrainStep_LockFreeSsdThrottled)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
