// Google-benchmark micro-benchmarks of the page-based memory subsystem:
// allocation/release throughput vs page size, page movement bandwidth,
// tensor staging through the copy engine, and fp16 conversion cost.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <string>

#include "core/allocator.h"
#include "core/dtype.h"
#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "util/random.h"

namespace {

using namespace angelptm;

mem::HierarchicalMemoryOptions Options(size_t page_bytes) {
  mem::HierarchicalMemoryOptions options;
  options.page_bytes = page_bytes;
  options.gpu_capacity_bytes = 256ull << 20;
  options.cpu_capacity_bytes = 512ull << 20;
  return options;
}

/// Tensor allocate+release churn at the given page size (arg 0 = KiB).
void BM_AllocatorChurn(benchmark::State& state) {
  mem::HierarchicalMemory memory(Options(size_t(state.range(0)) * 1024));
  core::Allocator allocator(&memory);
  const size_t elements = 256 * 1024;  // 1 MiB fp32 tensors.
  for (auto _ : state) {
    auto tensor = allocator.Allocate({elements}, core::DType::kFp32,
                                     mem::DeviceKind::kCpu);
    benchmark::DoNotOptimize(tensor);
    if (tensor.ok()) {
      benchmark::DoNotOptimize((*tensor)->pages().front()->data_ptr());
      (void)allocator.Release(*tensor);
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * elements * 4);
}
BENCHMARK(BM_AllocatorChurn)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

/// Synchronous page movement CPU <-> "GPU" tier (memcpy bandwidth at page
/// granularity; arg 0 = page KiB).
void BM_PageMove(benchmark::State& state) {
  mem::HierarchicalMemory memory(Options(size_t(state.range(0)) * 1024));
  auto page = memory.CreatePage(mem::DeviceKind::kCpu);
  if (!page.ok()) {
    state.SkipWithError("page creation failed");
    return;
  }
  bool to_gpu = true;
  for (auto _ : state) {
    (void)memory.MovePageSync(*page, to_gpu ? mem::DeviceKind::kGpu
                                            : mem::DeviceKind::kCpu);
    to_gpu = !to_gpu;
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(memory.page_bytes()));
}
BENCHMARK(BM_PageMove)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// Asynchronous staging of a multi-page tensor through the copy engine.
void BM_CopyEngineStaging(benchmark::State& state) {
  mem::HierarchicalMemory memory(Options(1 << 20));
  core::Allocator allocator(&memory);
  mem::CopyEngine engine(&memory, 2);
  const size_t elements = size_t(state.range(0)) * 1024 * 1024 / 4;
  auto tensor =
      allocator.Allocate({elements}, core::DType::kFp32,
                         mem::DeviceKind::kCpu);
  if (!tensor.ok()) {
    state.SkipWithError("allocation failed");
    return;
  }
  bool to_gpu = true;
  for (auto _ : state) {
    std::vector<std::future<util::Status>> futures;
    for (mem::Page* page : (*tensor)->pages()) {
      futures.push_back(engine.MoveAsync(
          page, to_gpu ? mem::DeviceKind::kGpu : mem::DeviceKind::kCpu));
    }
    for (auto& f : futures) (void)f.get();
    to_gpu = !to_gpu;
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * elements * 4);
}
BENCHMARK(BM_CopyEngineStaging)->Arg(4)->Arg(16)->Arg(64);

/// SSD tier round trip with real file I/O (arg 0 = MiB tensor).
void BM_SsdRoundTrip(benchmark::State& state) {
  mem::HierarchicalMemoryOptions options = Options(1 << 20);
  options.ssd_capacity_bytes = 512ull << 20;
  options.ssd_path =
      "/tmp/angelptm_bench_ssd_" + std::to_string(::getpid()) + ".bin";
  mem::HierarchicalMemory memory(options);
  core::Allocator allocator(&memory);
  const size_t elements = size_t(state.range(0)) * 1024 * 1024 / 4;
  auto tensor = allocator.Allocate({elements}, core::DType::kFp32,
                                   mem::DeviceKind::kCpu);
  if (!tensor.ok()) {
    state.SkipWithError("allocation failed");
    return;
  }
  for (auto _ : state) {
    (void)allocator.Move(*tensor, mem::DeviceKind::kSsd);
    (void)allocator.Move(*tensor, mem::DeviceKind::kCpu);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * elements * 8);
}
BENCHMARK(BM_SsdRoundTrip)->Arg(1)->Arg(8)->Arg(32);

/// fp32 <-> fp16 conversion (the buffering thread's cast work).
void BM_HalfConversion(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<float> values(size_t(state.range(0)));
  rng.FillGaussian(&values, 1.0);
  std::vector<uint16_t> bits(values.size());
  for (auto _ : state) {
    core::FloatsToHalves(values.data(), bits.data(), values.size());
    benchmark::DoNotOptimize(bits.data());
    benchmark::ClobberMemory();
    core::HalvesToFloats(bits.data(), values.data(), values.size());
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(values.size()));
}
BENCHMARK(BM_HalfConversion)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
