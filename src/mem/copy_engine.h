#ifndef ANGELPTM_MEM_COPY_ENGINE_H_
#define ANGELPTM_MEM_COPY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <unordered_map>

#include "mem/device.h"
#include "mem/hierarchical_memory.h"
#include "mem/page.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace angelptm::mem {

/// Asynchronous page movement, standing in for cudaMemcpyAsync + DeepNVMe
/// (§5, Allocator): movements run on background threads so computation and
/// data movement genuinely overlap, exactly the property the unified
/// scheduler exploits.
///
/// Ordering: moves of the same page are serialized (last submitted wins the
/// final residence only if the caller sequences completions — the scheduler
/// always waits for a page's previous move before issuing another).
class CopyEngine {
 public:
  /// Structured statistics of this engine instance; Snapshot() is the only
  /// place they are read (DESIGN.md §8).
  struct Stats {
    uint64_t moves_completed = 0;
    uint64_t moves_failed = 0;
    /// Moves submitted but not yet resolved.
    size_t queue_depth = 0;
    /// Per-page serialization mutexes currently tracked (bounded: entries
    /// with no in-flight move are garbage-collected).
    size_t tracked_page_mutexes = 0;
  };

  /// `memory` must outlive the engine.
  CopyEngine(HierarchicalMemory* memory, size_t num_threads);
  ~CopyEngine();

  CopyEngine(const CopyEngine&) = delete;
  CopyEngine& operator=(const CopyEngine&) = delete;

  /// Enqueues an asynchronous move of `page` to `target`. The returned future
  /// resolves with the move's status. This is the implementation of the
  /// paper's `Page::move(target_device_index)` interface.
  [[nodiscard]] std::future<util::Status> MoveAsync(Page* page,
                                                    DeviceKind target)
      ANGEL_EXCLUDES(page_mutex_map_mutex_);

  /// Blocks until every enqueued move has completed. Never call while holding
  /// a lock that a move callback can take.
  void Drain() ANGEL_EXCLUDES(page_mutex_map_mutex_);

  /// Point-in-time copy of this instance's statistics.
  Stats Snapshot() const ANGEL_EXCLUDES(page_mutex_map_mutex_);

 private:
  /// Sweep the mutex map when it reaches this many entries at minimum.
  static constexpr size_t kPageMutexGcMinThreshold = 64;

  std::shared_ptr<util::Mutex> PageMutex(uint64_t page_id)
      ANGEL_EXCLUDES(page_mutex_map_mutex_);

  HierarchicalMemory* memory_;
  util::ThreadPool pool_;
  std::atomic<uint64_t> moves_completed_{0};
  std::atomic<uint64_t> moves_failed_{0};
  std::atomic<size_t> queue_depth_{0};

  mutable util::Mutex page_mutex_map_mutex_{"copy.page_map",
                                            util::lockrank::kCopyPageMap};
  std::unordered_map<uint64_t, std::shared_ptr<util::Mutex>> page_mutexes_
      ANGEL_GUARDED_BY(page_mutex_map_mutex_);
  size_t page_mutex_gc_threshold_ ANGEL_GUARDED_BY(page_mutex_map_mutex_) =
      kPageMutexGcMinThreshold;
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_COPY_ENGINE_H_
