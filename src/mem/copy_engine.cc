#include "mem/copy_engine.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::mem {

CopyEngine::CopyEngine(HierarchicalMemory* memory, size_t num_threads)
    : memory_(memory), pool_(num_threads) {}

CopyEngine::~CopyEngine() { Drain(); }

std::future<util::Status> CopyEngine::MoveAsync(Page* page,
                                                DeviceKind target) {
  auto promise = std::make_shared<std::promise<util::Status>>();
  std::future<util::Status> future = promise->get_future();
  auto mutex = PageMutex(page->id());
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  const bool accepted =
      pool_.Submit([this, page, target, promise,
                    mutex = std::move(mutex)] {
        ANGEL_SPAN("copy", "move_async");
        // Failpoint for a copy thread dying mid-move (a failed
        // cudaMemcpyAsync / DeepNVMe submission in the real system): the
        // error reaches the caller through the move's future.
        util::Status status =
            util::FaultInjector::Instance().Check("copy_engine.move");
        if (status.ok()) {
          util::MutexLock lock(*mutex);
          status = memory_->MovePageSync(page, target);
        }
        if (status.ok()) {
          moves_completed_.fetch_add(1, std::memory_order_relaxed);
        } else {
          moves_failed_.fetch_add(1, std::memory_order_relaxed);
        }
        queue_depth_.fetch_sub(1, std::memory_order_relaxed);
        promise->set_value(std::move(status));
      });
  if (!accepted) {
    // The pool was shut down; fail the move instead of returning a future
    // that never resolves.
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    moves_failed_.fetch_add(1, std::memory_order_relaxed);
    ANGEL_LOG(Warning) << "copy engine rejected move for page " << page->id()
                       << ": pool is shut down";
    promise->set_value(util::Status(util::StatusCode::kCancelled,
                                    "copy engine is shut down"));
  }
  return future;
}

void CopyEngine::Drain() { pool_.Wait(); }

std::shared_ptr<util::Mutex> CopyEngine::PageMutex(uint64_t page_id) {
  util::MutexLock lock(page_mutex_map_mutex_);
  // A mutex whose only reference is the map entry has no in-flight move;
  // sweep those out once the map doubles past the last sweep, so long-lived
  // engines moving millions of distinct pages stay O(live moves).
  if (page_mutexes_.size() >= page_mutex_gc_threshold_) {
    for (auto it = page_mutexes_.begin(); it != page_mutexes_.end();) {
      if (it->second.use_count() == 1) {
        it = page_mutexes_.erase(it);
      } else {
        ++it;
      }
    }
    page_mutex_gc_threshold_ =
        std::max<size_t>(kPageMutexGcMinThreshold, 2 * page_mutexes_.size());
  }
  auto& entry = page_mutexes_[page_id];
  if (entry == nullptr) {
    entry = std::make_shared<util::Mutex>("copy.page",
                                          util::lockrank::kCopyPage);
  }
  return entry;
}

CopyEngine::Stats CopyEngine::Snapshot() const {
  Stats stats;
  stats.moves_completed = moves_completed_.load(std::memory_order_relaxed);
  stats.moves_failed = moves_failed_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(page_mutex_map_mutex_);
    stats.tracked_page_mutexes = page_mutexes_.size();
  }
  return stats;
}

}  // namespace angelptm::mem
