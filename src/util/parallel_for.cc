#include "util/parallel_for.h"

#include <thread>

#include "util/env_override.h"

namespace angelptm::util {
namespace {

std::atomic<ThreadPool*> g_compute_pool_override{nullptr};

size_t DefaultComputeThreads() {
  // Precedence (util::EnvOverride contract): SetComputePoolOverride beats
  // the env, which beats hardware_concurrency(). Zero or negative thread
  // counts are meaningless, so EnvPositiveOr rejects them.
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t fallback = hw == 0 ? 1 : size_t(hw);
  return EnvPositiveOr("ANGELPTM_COMPUTE_THREADS", fallback);
}

ThreadPool* DefaultComputePool() {
  // Leaked on purpose: compute kernels may run from other static-lifetime
  // threads (lock-free updater, copy engine), so tearing the pool down
  // during static destruction would be an ordering hazard.
  static ThreadPool* pool =
      new ThreadPool(DefaultComputeThreads());  // lint: naked-new (leaked singleton)
  return pool;
}

}  // namespace

ThreadPool* ComputePool() {
  ThreadPool* override_pool =
      g_compute_pool_override.load(std::memory_order_acquire);
  if (override_pool != nullptr) return override_pool;
  return DefaultComputePool();
}

void SetComputePoolOverride(ThreadPool* pool) {
  g_compute_pool_override.store(pool, std::memory_order_release);
}

size_t ComputePoolThreads() { return ComputePool()->num_threads(); }

}  // namespace angelptm::util
