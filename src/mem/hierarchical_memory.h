#ifndef ANGELPTM_MEM_HIERARCHICAL_MEMORY_H_
#define ANGELPTM_MEM_HIERARCHICAL_MEMORY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "mem/device.h"
#include "mem/page.h"
#include "mem/page_arena.h"
#include "mem/ssd_tier.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::mem {

/// Configuration for the three storage tiers of one rank.
struct HierarchicalMemoryOptions {
  size_t page_bytes = kDefaultPageBytes;
  uint64_t gpu_capacity_bytes = 0;
  uint64_t cpu_capacity_bytes = 0;
  /// 0 disables the SSD tier entirely.
  uint64_t ssd_capacity_bytes = 0;
  std::string ssd_path = "/tmp/angelptm_ssd.bin";
  /// Emulated SSD speed; 0 = unthrottled (the default for tests).
  double ssd_bandwidth_bytes_per_sec = 0.0;
};

/// Movement statistics per (source, target) tier pair.
struct MoveStats {
  uint64_t moves = 0;
  uint64_t bytes = 0;
};

/// One tier's occupancy within a MemorySnapshot.
struct TierUsage {
  uint64_t used_bytes = 0;
  uint64_t capacity_bytes = 0;
  /// Live pages currently resident on this tier.
  size_t pages = 0;
};

/// Structured point-in-time view of the hierarchical memory — the machine-
/// readable surface every stats consumer (reports, telemetry, tests) reads
/// instead of poking individual getters. Produced by
/// HierarchicalMemory::Snapshot(); rendered by mem::FormatMemoryReport.
struct MemorySnapshot {
  size_t page_bytes = 0;
  size_t live_pages = 0;
  /// Total bytes of internal fragmentation across live pages (holes from
  /// out-of-order releases; bounded by the two-tensor cap).
  uint64_t fragmented_bytes = 0;
  /// Indexed by DeviceKind; a tier with capacity_bytes == 0 is disabled.
  std::array<TierUsage, kNumDeviceKinds> tiers{};
  /// moves[from][to], indexed by DeviceKind.
  std::array<std::array<MoveStats, kNumDeviceKinds>, kNumDeviceKinds>
      moves{};

  const TierUsage& tier(DeviceKind kind) const {
    return tiers[static_cast<int>(kind)];
  }
  const MoveStats& link(DeviceKind from, DeviceKind to) const {
    return moves[static_cast<int>(from)][static_cast<int>(to)];
  }
};

/// Owner of the per-rank hierarchical storage: the pre-allocated GPU and CPU
/// page arenas, the file-backed SSD tier, and the registry of live pages.
/// This is the substrate beneath the paper's Allocator component (§5): all
/// page creation, destruction and inter-tier movement funnels through here.
///
/// Thread-safety: page creation/destruction and moves of *distinct* pages may
/// run concurrently; moves of the same page must be externally serialized
/// (the unified scheduler and the copy engine both guarantee this).
class HierarchicalMemory {
 public:
  explicit HierarchicalMemory(const HierarchicalMemoryOptions& options);
  ~HierarchicalMemory();

  HierarchicalMemory(const HierarchicalMemory&) = delete;
  HierarchicalMemory& operator=(const HierarchicalMemory&) = delete;

  /// Creates a page resident on `initial_device`, acquiring a frame there.
  [[nodiscard]] util::Result<Page*> CreatePage(DeviceKind initial_device)
      ANGEL_EXCLUDES(registry_mutex_);

  /// Releases the page's frame and unregisters it. The page must be empty
  /// (no tensor slots) unless `force` is set.
  [[nodiscard]] util::Status DestroyPage(Page* page, bool force = false)
      ANGEL_EXCLUDES(registry_mutex_);

  /// Moves a page's contents to `target`, synchronously. Acquires the target
  /// frame first, so on ResourceExhausted the page is untouched. This is the
  /// primitive beneath Page::move(); asynchrony is added by CopyEngine.
  [[nodiscard]] util::Status MovePageSync(Page* page, DeviceKind target)
      ANGEL_EXCLUDES(stats_mutex_);

  const PageArena& gpu_arena() const { return *gpu_arena_; }
  const PageArena& cpu_arena() const { return *cpu_arena_; }
  SsdTier* ssd() { return ssd_enabled_ ? &ssd_ : nullptr; }
  bool ssd_enabled() const { return ssd_enabled_; }
  /// Why a configured SSD tier could not be opened (a bad ssd_path, a
  /// capacity below one page); OK when it opened or none is configured.
  /// Every SSD page creation and move then fails with this status.
  const util::Status& ssd_open_status() const { return ssd_open_status_; }

  size_t page_bytes() const { return options_.page_bytes; }
  uint64_t capacity_bytes(DeviceKind device) const;

  /// Structured snapshot of occupancy, page counts, fragmentation and
  /// per-link movement — the only stats surface (DESIGN.md §8).
  MemorySnapshot Snapshot() const
      ANGEL_EXCLUDES(registry_mutex_, stats_mutex_);

 private:
  uint64_t used_bytes(DeviceKind device) const;
  PageArena& MutableArena(DeviceKind device);
  /// The error an SSD page operation returns when the tier is off.
  [[nodiscard]] util::Status SsdUnavailable() const;

  HierarchicalMemoryOptions options_;
  std::unique_ptr<PageArena> gpu_arena_;
  std::unique_ptr<PageArena> cpu_arena_;
  SsdTier ssd_;
  bool ssd_enabled_ = false;
  util::Status ssd_open_status_;

  mutable util::Mutex registry_mutex_{"hmem.registry",
                                      util::lockrank::kHmemRegistry};
  std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_
      ANGEL_GUARDED_BY(registry_mutex_);
  std::atomic<uint64_t> next_page_id_{0};

  mutable util::Mutex stats_mutex_{"hmem.stats",
                                   util::lockrank::kHmemStats};
  std::array<std::array<MoveStats, kNumDeviceKinds>, kNumDeviceKinds>
      move_stats_ ANGEL_GUARDED_BY(stats_mutex_){};
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_HIERARCHICAL_MEMORY_H_
