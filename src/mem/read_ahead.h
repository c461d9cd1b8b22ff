#ifndef ANGELPTM_MEM_READ_AHEAD_H_
#define ANGELPTM_MEM_READ_AHEAD_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <unordered_map>
#include <vector>

#include "mem/copy_engine.h"
#include "mem/device.h"
#include "mem/hierarchical_memory.h"
#include "mem/page.h"
#include "mem/prefetch_planner.h"
#include "util/status.h"

namespace angelptm::mem {

/// Planner-driven page read-ahead over a two-tier (fetch tier + backing tier)
/// working set (DESIGN.md §12): the consumer declares pages under stable keys
/// (Bind), touches them in schedule order (Acquire), and the executor keeps
/// the next `window` scheduled pages in flight on the fetch tier through
/// CopyEngine::MoveAsync — which lands in SsdTier's submission queue, where
/// adjacent frames coalesce into batched preadv calls. Eviction is
/// Belady-style via PrefetchPlanner::PickEvictionVictim: the resident page
/// whose next predicted use is farthest away is written back, never the
/// immediately-next one. Before the planner trains (warmup step), Acquire
/// degrades to fetch-on-demand with first-found eviction.
///
/// Frame budget: at most `max_resident` bound pages simultaneously occupy (or
/// are moving to/from) the fetch tier. Keep this at or below the fetch
/// arena's free frames or prefetch moves fail with ResourceExhausted and fall
/// back to synchronous fetches.
///
/// Single-threaded driver by contract (like PrefetchPlanner): one consumer
/// thread calls Bind/BeginStep/Acquire; concurrency lives below, in the copy
/// engine's pool and the SSD tier's queue workers. Same-page ordering is safe
/// because CopyEngine serializes moves of one page in submission order.
class ReadAheadExecutor {
 public:
  struct Options {
    /// Distinct scheduled pages to keep in flight ahead of the cursor.
    size_t window = 8;
    /// Budget of bound pages on (or moving to/from) the fetch tier.
    size_t max_resident = 16;
    DeviceKind fetch_device = DeviceKind::kCpu;
    DeviceKind backing_device = DeviceKind::kSsd;
  };

  /// Outcome counters of this executor.
  struct Stats {
    /// Acquires whose page was already resident (or whose prefetch had
    /// completed) on the fetch tier — no blocking.
    uint64_t hits = 0;
    /// Acquires that had to block (prefetch still in flight, or no prefetch
    /// was issued at all).
    uint64_t waits = 0;
    /// Acquires whose fetch was *issued* before the use (resident, or
    /// in flight) — the deterministic coverage measure: covered == uses
    /// means the planner predicted every access.
    uint64_t covered = 0;
    /// Belady write-backs issued to make room for read-ahead.
    uint64_t evictions = 0;
    /// Acquires served by a synchronous on-demand move (miss, or a failed
    /// prefetch recovered inline).
    uint64_t sync_fetches = 0;
    /// Async prefetch/evict futures that resolved with an error (each is
    /// recovered by a sync fallback or surfaced by Acquire).
    uint64_t failed_moves = 0;
  };

  /// `memory`, `engine` and `planner` must outlive the executor.
  ReadAheadExecutor(HierarchicalMemory* memory, CopyEngine* engine,
                    PrefetchPlanner* planner, const Options& options);

  ReadAheadExecutor(const ReadAheadExecutor&) = delete;
  ReadAheadExecutor& operator=(const ReadAheadExecutor&) = delete;

  /// Registers `page` under `key` (the key used in the planner's trace).
  void Bind(uint64_t key, Page* page);

  /// Starts a step: resets the planner cursor and tops up the window.
  void BeginStep();

  /// Blocks until `key`'s page is resident on the fetch tier, then issues
  /// read-ahead for the upcoming window. Returns the page, which stays
  /// resident at least until the next Acquire or BeginStep, or the error
  /// that both the async move and the sync fallback died with.
  [[nodiscard]] util::Result<Page*> Acquire(uint64_t key);

  /// Settles every in-flight move (prefetches and evictions). Call before
  /// tearing down pages the executor still references.
  [[nodiscard]] util::Status Drain();

  Stats Snapshot() const { return stats_; }

 private:
  enum class OpState { kIdle, kFetching, kEvicting };

  struct Entry {
    Page* page = nullptr;
    OpState op = OpState::kIdle;
    std::future<util::Status> move;
  };

  /// True when the entry occupies (or is moving to/from) a fetch-tier frame.
  bool OccupiesFetchTier(const Entry& entry) const;
  size_t OccupiedCount() const;
  /// Harvests completed futures; with `block`, waits for them all.
  void SettleMoves(bool block);
  /// Issues prefetches for the planner's lookahead window, evicting
  /// farthest-next-use residents as needed within the frame budget. Never
  /// evicts `in_use`, the page Acquire is about to return
  /// (PrefetchPlanner::kNoVictim when there is none).
  void TopUp(uint64_t in_use);
  /// Synchronous eviction of the best victim outside `protect`; used by the
  /// on-demand path when the budget is exhausted.
  [[nodiscard]] util::Status EvictOneSync(uint64_t protect);

  HierarchicalMemory* memory_;
  CopyEngine* engine_;
  PrefetchPlanner* planner_;
  Options options_;
  std::unordered_map<uint64_t, Entry> entries_;

  Stats stats_;
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_READ_AHEAD_H_
