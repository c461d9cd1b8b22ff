#ifndef ANGELPTM_CORE_ALLOCATOR_H_
#define ANGELPTM_CORE_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/tensor.h"
#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::core {

/// Tensors allocated with the same group may share their tail page (§4.1:
/// "by carefully arranging these tensors, we can ensure that each page is
/// associated with at most two tensors"). Groups correspond to model layers,
/// so co-resident tensors move between tiers together. kNoGroup tensors get
/// exclusive pages.
inline constexpr uint64_t kNoGroup = ~0ull;

/// The Allocator component of Angel-PTM (§5): manages tensors at the Page
/// level over the pre-allocated hierarchical memory. Implements the Tensor
/// interfaces of Fig. 4 — allocate, release, move — on top of
/// mem::HierarchicalMemory. Fig. 4's `merge` (re-packing a tensor onto
/// adjacent frames) is not reproduced: every reader of a tensor's bytes
/// walks its page spans (Tensor::ForEachSpan), so none needs one range.
class Allocator {
 public:
  /// `memory` must outlive the allocator.
  explicit Allocator(mem::HierarchicalMemory* memory);
  ~Allocator();

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  /// Creates a tensor of `shape`/`dtype` resident on `device`. Whole pages
  /// are exclusive; the tail (bytes % page size) shares a page with at most
  /// one other tensor of the same `group`. Tensors smaller than one page get
  /// an individual page (shared only within their group).
  [[nodiscard]] util::Result<Tensor*> Allocate(std::vector<size_t> shape,
                                               DType dtype,
                                               mem::DeviceKind device,
                                               uint64_t group = kNoGroup)
      ANGEL_EXCLUDES(mutex_);

  /// Releases the tensor's claims; pages that drain are destroyed, returning
  /// frames to their tier.
  [[nodiscard]] util::Status Release(Tensor* tensor) ANGEL_EXCLUDES(mutex_);

  /// Moves every page of the tensor to `target`, synchronously. A shared
  /// tail page carries its partner tensor's bytes along (by design — grouped
  /// tensors co-migrate). The allocator mutex is held only to drop the
  /// pages from the open-tail registry, not across the page moves (SSD I/O
  /// included); as with HierarchicalMemory::MovePageSync, callers serialize
  /// moves of one page and keep the tensor alive.
  [[nodiscard]] util::Status Move(Tensor* tensor, mem::DeviceKind target)
      ANGEL_EXCLUDES(mutex_);

  /// Number of live tensors.
  size_t num_tensors() const ANGEL_EXCLUDES(mutex_);
  /// Bytes requested by live tensors (excluding page-granularity padding).
  uint64_t allocated_bytes() const ANGEL_EXCLUDES(mutex_);
  /// Bytes of page capacity held minus bytes requested: the internal waste
  /// the 4 MiB page choice trades for bandwidth (§4.1).
  uint64_t padding_bytes() const ANGEL_EXCLUDES(mutex_);

  mem::HierarchicalMemory* memory() { return memory_; }

 private:
  struct OpenPageKey {
    mem::DeviceKind device;
    uint64_t group;
    bool operator<(const OpenPageKey& other) const {
      return std::tie(device, group) < std::tie(other.device, other.group);
    }
  };

  [[nodiscard]] util::Status AllocatePagesLocked(Tensor* tensor,
                                                 mem::DeviceKind device,
                                                 uint64_t group)
      ANGEL_REQUIRES(mutex_);
  void ForgetOpenPage(const mem::Page* page) ANGEL_REQUIRES(mutex_);

  mem::HierarchicalMemory* memory_;

  mutable util::Mutex mutex_{"alloc.state", util::lockrank::kAllocState};
  std::unordered_map<uint64_t, std::unique_ptr<Tensor>> tensors_
      ANGEL_GUARDED_BY(mutex_);
  uint64_t next_tensor_id_ ANGEL_GUARDED_BY(mutex_) = 0;
  uint64_t allocated_bytes_ ANGEL_GUARDED_BY(mutex_) = 0;
  uint64_t page_capacity_bytes_ ANGEL_GUARDED_BY(mutex_) = 0;
  /// Pages with one tensor and remaining space, eligible as a shared tail.
  std::map<OpenPageKey, mem::Page*> open_pages_ ANGEL_GUARDED_BY(mutex_);
};

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_ALLOCATOR_H_
