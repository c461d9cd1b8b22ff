#include "mem/page_arena.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace angelptm::mem {

PageArena::PageArena(DeviceKind device, uint64_t capacity_bytes,
                     size_t frame_bytes)
    : device_(device),
      frame_bytes_(frame_bytes),
      total_frames_(frame_bytes == 0 ? 0 : capacity_bytes / frame_bytes) {
  ANGEL_CHECK(frame_bytes_ > 0) << "frame size must be positive";
  buffer_ = std::make_unique<std::byte[]>(total_frames_ * frame_bytes_);
  free_list_.reserve(total_frames_);
  // Push in reverse so frames are handed out low-address first.
  for (size_t i = total_frames_; i > 0; --i) {
    free_list_.push_back(static_cast<uint32_t>(i - 1));
  }
}

util::Result<std::byte*> PageArena::AcquireFrame() {
  util::MutexLock lock(mutex_);
  if (free_list_.empty()) {
    return util::Status::ResourceExhausted(
        std::string(DeviceKindName(device_)) + " tier full (" +
        std::to_string(total_frames_) + " frames)");
  }
  const uint32_t index = free_list_.back();
  free_list_.pop_back();
  peak_used_ = std::max(peak_used_, total_frames_ - free_list_.size());
  return buffer_.get() + uint64_t{index} * frame_bytes_;
}

void PageArena::ReleaseFrame(std::byte* frame) {
  ANGEL_CHECK(Owns(frame)) << "frame does not belong to "
                           << DeviceKindName(device_) << " arena";
  const uint64_t offset = frame - buffer_.get();
  ANGEL_CHECK(offset % frame_bytes_ == 0) << "misaligned frame pointer";
  util::MutexLock lock(mutex_);
  free_list_.push_back(static_cast<uint32_t>(offset / frame_bytes_));
}

size_t PageArena::free_frames() const {
  util::MutexLock lock(mutex_);
  return free_list_.size();
}

size_t PageArena::peak_used_frames() const {
  util::MutexLock lock(mutex_);
  return peak_used_;
}

bool PageArena::Owns(const std::byte* ptr) const {
  return ptr >= buffer_.get() &&
         ptr < buffer_.get() + total_frames_ * frame_bytes_;
}

}  // namespace angelptm::mem
