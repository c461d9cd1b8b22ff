#include "mem/ssd_tier.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/retry.h"

namespace angelptm::mem {

SsdTier::~SsdTier() { Close(); }

util::Status SsdTier::Open(const Options& options) {
  if (is_open()) {
    return util::Status::FailedPrecondition("SsdTier already open");
  }
  if (options.frame_bytes == 0) {
    return util::Status::InvalidArgument("frame_bytes must be positive");
  }
  if (options.capacity_bytes < options.frame_bytes) {
    return util::Status::InvalidArgument(
        "ssd capacity (" + std::to_string(options.capacity_bytes) +
        " bytes) smaller than one frame (" +
        std::to_string(options.frame_bytes) + " bytes)");
  }
  const uint64_t frames = options.capacity_bytes / options.frame_bytes;
  // Frame indices are stored as uint32_t in the free list; a silently
  // truncated index would alias two different frames' offsets.
  if (frames > std::numeric_limits<uint32_t>::max()) {
    return util::Status::InvalidArgument(
        "ssd capacity of " + std::to_string(frames) +
        " frames exceeds the 2^32-1 frame-index limit; use larger frames");
  }
  const int fd =
      ::open(options.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::Status::IoError("open(" + options.path +
                                 "): " + std::strerror(errno));
  }
  // Unnamed from here on: the file lives as long as the descriptor, so a
  // process that dies without Close() leaves nothing behind.
  ::unlink(options.path.c_str());
  frame_bytes_ = options.frame_bytes;
  total_frames_ = static_cast<size_t>(frames);
  if (::ftruncate(fd, static_cast<off_t>(uint64_t{total_frames_} *
                                         frame_bytes_)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::IoError("ftruncate: " + err);
  }
  fd_ = fd;
  throttle_.set_rate(options.throttle_bytes_per_sec);
  {
    util::MutexLock lock(mutex_);
    free_list_.clear();
    free_list_.reserve(total_frames_);
    for (size_t i = total_frames_; i > 0; --i) {
      free_list_.push_back(static_cast<uint32_t>(i - 1));
    }
    pins_.clear();
  }
  return util::Status::OK();
}

void SsdTier::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<uint64_t> SsdTier::AcquireFrame() {
  util::MutexLock lock(mutex_);
  if (free_list_.empty()) {
    return util::Status::ResourceExhausted("ssd tier full (" +
                                           std::to_string(total_frames_) +
                                           " frames)");
  }
  const uint32_t index = free_list_.back();
  free_list_.pop_back();
  return uint64_t{index} * frame_bytes_;
}

size_t SsdTier::free_frames() const {
  util::MutexLock lock(mutex_);
  return free_list_.size();
}

uint32_t SsdTier::FrameIndex(uint64_t offset) const {
  ANGEL_CHECK(offset % frame_bytes_ == 0) << "misaligned ssd frame offset";
  const uint64_t index = offset / frame_bytes_;
  ANGEL_CHECK(index < total_frames_) << "ssd frame offset out of range";
  return static_cast<uint32_t>(index);
}

void SsdTier::ReleaseFrame(uint64_t offset) {
  const uint32_t index = FrameIndex(offset);
  util::MutexLock lock(mutex_);
  const auto pin = pins_.find(index);
  if (pin != pins_.end()) {
    pin->second.released = true;
    return;
  }
  free_list_.push_back(index);
}

void SsdTier::PinFrames(const std::vector<uint64_t>& offsets) {
  util::MutexLock lock(mutex_);
  for (const uint64_t offset : offsets) pins_[FrameIndex(offset)].count += 1;
}

void SsdTier::UnpinFrames(const std::vector<uint64_t>& offsets) {
  {
    util::MutexLock lock(mutex_);
    for (const uint64_t offset : offsets) {
      const auto pin = pins_.find(FrameIndex(offset));
      ANGEL_CHECK(pin != pins_.end()) << "unpinning an unpinned ssd frame";
      if (--pin->second.count > 0) continue;
      if (pin->second.released) free_list_.push_back(pin->first);
      pins_.erase(pin);
    }
  }
  unpin_cv_.NotifyAll();
}

void SsdTier::WaitForUnpin(const std::vector<uint64_t>& offsets,
                           size_t needed,
                           const std::function<void()>& on_block) {
  util::MutexLock lock(mutex_);
  const auto any_pinned = [&]() ANGEL_REQUIRES(mutex_) {
    for (const uint64_t offset : offsets) {
      if (pins_.count(FrameIndex(offset)) > 0) return true;
    }
    return false;
  };
  bool blocked = false;
  while (free_list_.size() < needed && any_pinned()) {
    if (!blocked) on_block();
    blocked = true;
    unpin_cv_.Wait(mutex_);
  }
}

size_t SsdTier::pinned_frames() const {
  util::MutexLock lock(mutex_);
  return pins_.size();
}

util::Status SsdTier::ValidateIo(size_t bytes) const {
  if (!is_open()) return util::Status::FailedPrecondition("SsdTier closed");
  if (bytes > frame_bytes_) {
    return util::Status::InvalidArgument("transfer exceeds frame size");
  }
  return util::Status::OK();
}

util::Status SsdTier::TransferOnce(bool is_write, uint64_t offset,
                                   std::byte* buf, size_t bytes) {
  if (is_write) {
    ANGEL_FAULT_CHECK("ssd.pwrite");
  } else {
    ANGEL_FAULT_CHECK("ssd.pread");
  }
  size_t done = 0;
  while (done < bytes) {
    const off_t at = static_cast<off_t>(offset + done);
    const ssize_t n = is_write ? ::pwrite(fd_, buf + done, bytes - done, at)
                               : ::pread(fd_, buf + done, bytes - done, at);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(
          std::string(is_write ? "pwrite" : "pread") + " at offset " +
          std::to_string(offset + done) + ": " + std::strerror(errno));
    }
    if (n == 0) {
      // A short read mid-range means the backing file is truncated; say
      // exactly where and how much was missing so recovery logs are
      // actionable.
      return util::Status::IoError(
          std::string(is_write ? "pwrite" : "pread") +
          ": unexpected EOF at offset " + std::to_string(offset + done) +
          " (requested " + std::to_string(bytes) + " bytes from offset " +
          std::to_string(offset) + ", received " + std::to_string(done) +
          ")");
    }
    done += static_cast<size_t>(n);
  }
  return util::Status::OK();
}

util::Status SsdTier::Transfer(bool is_write, uint64_t offset, std::byte* buf,
                               size_t bytes) {
  if (util::Status validation = ValidateIo(bytes); !validation.ok()) {
    return validation;
  }
  ANGEL_SPAN("ssd", is_write ? "pwrite" : "pread");
  io_requests_.fetch_add(1, std::memory_order_relaxed);
  // Only IoError is plausibly transient; argument/precondition errors would
  // fail identically on every attempt.
  util::Status status = util::RetryTransient(
      [&] { return TransferOnce(is_write, offset, buf, bytes); },
      [](const util::Status& failed) { return failed.IsIoError(); },
      [&](const util::Status& failed, int attempt_number, int backoff_us) {
        io_retries_.fetch_add(1, std::memory_order_relaxed);
        ANGEL_LOG(Warning) << (is_write ? "ssd.pwrite" : "ssd.pread")
                           << " attempt " << attempt_number << "/"
                           << util::kRetryAttempts << " failed ("
                           << failed.ToString() << "), retrying in "
                           << backoff_us << "us";
      });
  if (status.ok()) {
    (is_write ? bytes_written_ : bytes_read_)
        .fetch_add(bytes, std::memory_order_relaxed);
    throttle_.Consume(bytes);
  }
  return status;
}

util::Status SsdTier::WriteFrame(uint64_t offset, const std::byte* src,
                                 size_t bytes) {
  // The write path only reads through this pointer; Transfer shares it
  // with the read path, whose buffers are genuinely written to.
  return Transfer(true, offset, const_cast<std::byte*>(src), bytes);
}

util::Status SsdTier::ReadFrame(uint64_t offset, std::byte* dst,
                                size_t bytes) {
  return Transfer(false, offset, dst, bytes);
}

SsdTier::Stats SsdTier::Snapshot() const {
  Stats stats;
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  stats.io_retries = io_retries_.load(std::memory_order_relaxed);
  stats.io_batches = io_requests_.load(std::memory_order_relaxed);
  stats.queued_requests = stats.io_batches;
  stats.total_frames = total_frames_;
  stats.free_frames = free_frames();
  return stats;
}

}  // namespace angelptm::mem
