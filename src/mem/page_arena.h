#ifndef ANGELPTM_MEM_PAGE_ARENA_H_
#define ANGELPTM_MEM_PAGE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/device.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::mem {

/// A fixed-size frame allocator over one pre-allocated contiguous buffer.
///
/// §5 (Allocator): "we pre-allocate space from the hierarchical memory of the
/// system ... and divide the pre-allocated memory into pages of fixed size,
/// where each page can be allocated, released and moved independently."
/// Because all frames are the same size, external fragmentation is zero by
/// construction — the property the Page design buys over tensor-granular
/// allocators (DeepSpeed/PyTorch caching allocator) and chunk allocators
/// (PatrickStar).
class PageArena {
 public:
  /// Creates an arena for `device` holding floor(capacity / frame_bytes)
  /// frames. The backing buffer is allocated eagerly (pre-allocation is part
  /// of the design being reproduced).
  PageArena(DeviceKind device, uint64_t capacity_bytes, size_t frame_bytes);

  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  /// Acquires one free frame. Returns ResourceExhausted when the tier is
  /// full; callers (the unified scheduler) react by deferring movements.
  [[nodiscard]] util::Result<std::byte*> AcquireFrame()
      ANGEL_EXCLUDES(mutex_);

  /// Returns a frame obtained from AcquireFrame(). Aborts on a pointer that
  /// does not belong to this arena (a programming error).
  void ReleaseFrame(std::byte* frame) ANGEL_EXCLUDES(mutex_);

  DeviceKind device() const { return device_; }
  size_t frame_bytes() const { return frame_bytes_; }
  size_t total_frames() const { return total_frames_; }
  size_t free_frames() const ANGEL_EXCLUDES(mutex_);
  size_t used_frames() const { return total_frames_ - free_frames(); }
  uint64_t capacity_bytes() const {
    return uint64_t{total_frames_} * frame_bytes_;
  }
  uint64_t used_bytes() const { return uint64_t{used_frames()} * frame_bytes_; }

  /// High-water mark of simultaneously used frames.
  size_t peak_used_frames() const ANGEL_EXCLUDES(mutex_);

  bool Owns(const std::byte* ptr) const;

 private:
  DeviceKind device_;
  size_t frame_bytes_;
  size_t total_frames_;
  std::unique_ptr<std::byte[]> buffer_;

  mutable util::Mutex mutex_{"arena.state", util::lockrank::kArenaState};
  std::vector<uint32_t> free_list_ ANGEL_GUARDED_BY(mutex_);
  size_t peak_used_ ANGEL_GUARDED_BY(mutex_) = 0;
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_PAGE_ARENA_H_
