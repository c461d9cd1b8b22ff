#include "mem/ssd_tier.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "obs/trace.h"
#include "util/env_override.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::mem {
namespace {

// The ANGELPTM_SSD_IO_* knobs below follow the util::EnvOverride precedence
// contract: env wins over Options so a whole test binary can be re-pointed
// at the async backend without code changes (scripts/check.sh --ssd relies
// on this).
using util::EnvSizeOr;

}  // namespace

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
  frame_bytes_ = options.frame_bytes;
  total_frames_ = static_cast<size_t>(frames);
  if (::ftruncate(fd, static_cast<off_t>(uint64_t{total_frames_} *
                                         frame_bytes_)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::IoError("ftruncate: " + err);
  }
  fd_ = fd;
  path_ = options.path;
  throttle_.set_rate(options.throttle_bytes_per_sec);
  retry_ = options.retry;
  io_queue_depth_ =
      std::max<size_t>(1, EnvSizeOr("ANGELPTM_SSD_IO_QUEUE_DEPTH",
                                    options.io_queue_depth));
  io_max_coalesce_ = std::max<size_t>(
      1, EnvSizeOr("ANGELPTM_SSD_IO_COALESCE", options.io_max_coalesce));
  io_op_latency_us_ = static_cast<int>(
      EnvSizeOr("ANGELPTM_SSD_IO_OP_LATENCY_US",
                static_cast<size_t>(std::max(0, options.io_op_latency_us))));
  {
    util::MutexLock lock(mutex_);
    free_list_.clear();
    free_list_.reserve(total_frames_);
    for (size_t i = total_frames_; i > 0; --i) {
      free_list_.push_back(static_cast<uint32_t>(i - 1));
    }
    pins_.clear();
  }
  {
    util::MutexLock lock(io_mutex_);
    io_stop_ = false;
    max_queue_depth_ = 0;
  }
  const size_t workers =
      EnvSizeOr("ANGELPTM_SSD_IO_WORKERS", options.io_workers);
  io_threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    io_threads_.emplace_back([this] { WorkerLoop(); });
  }
  return util::Status::OK();
}

void SsdTier::Close() {
  if (!io_threads_.empty()) {
    {
      util::MutexLock lock(io_mutex_);
      io_stop_ = true;
    }
    io_work_cv_.NotifyAll();
    io_space_cv_.NotifyAll();
    for (auto& thread : io_threads_) thread.join();
    io_threads_.clear();
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    ::unlink(path_.c_str());
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

template <typename Attempt>
util::Status SsdTier::WithRetries(const char* site, Attempt&& attempt) {
  const int max_attempts = std::max(1, retry_.max_attempts);
  int backoff_us = retry_.base_backoff_us;
  util::Status status;
  for (int try_no = 1; try_no <= max_attempts; ++try_no) {
    status = attempt();
    // Only IoError is plausibly transient; argument/precondition errors
    // would fail identically on every attempt.
    if (status.ok() || !status.IsIoError()) return status;
    if (try_no == max_attempts) break;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    ANGEL_LOG(Warning) << site << " attempt " << try_no << "/" << max_attempts
                       << " failed (" << status.ToString() << "), retrying in "
                       << backoff_us << "us";
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
    backoff_us = static_cast<int>(
        std::min<double>(retry_.max_backoff_us,
                         backoff_us * std::max(1.0, retry_.multiplier)));
  }
  return status;
}

util::Status SsdTier::ValidateIo(size_t bytes) const {
  if (!is_open()) return util::Status::FailedPrecondition("SsdTier closed");
  if (bytes > frame_bytes_) {
    return util::Status::InvalidArgument("transfer exceeds frame size");
  }
  return util::Status::OK();
}

util::Status SsdTier::ExecuteBatchOnce(const std::vector<IoRequest>& batch) {
  // Emulated device command latency, charged per syscall attempt: one
  // coalesced batch pays it once, N individual requests pay it N times.
  if (io_op_latency_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(io_op_latency_us_));
  }
  const bool is_write = batch.front().is_write;
  if (is_write) {
    ANGEL_FAULT_CHECK("ssd.pwrite");
  } else {
    ANGEL_FAULT_CHECK("ssd.pread");
  }
  std::vector<iovec> iov;
  iov.reserve(batch.size());
  size_t total = 0;
  for (const IoRequest& request : batch) {
    iov.push_back(iovec{request.buf, request.bytes});
    total += request.bytes;
  }
  const uint64_t base = batch.front().offset;
  size_t done = 0;
  size_t skip = 0;  // Fully transferred iovecs after a partial syscall.
  while (done < total) {
    const ssize_t n =
        is_write ? ::pwritev(fd_, iov.data() + skip,
                             static_cast<int>(iov.size() - skip),
                             static_cast<off_t>(base + done))
                 : ::preadv(fd_, iov.data() + skip,
                            static_cast<int>(iov.size() - skip),
                            static_cast<off_t>(base + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(
          std::string(is_write ? "pwritev" : "preadv") + " at offset " +
          std::to_string(base + done) + ": " + std::strerror(errno));
    }
    if (n == 0) {
      // A short read mid-range means the backing file is truncated; say
      // exactly where and how much was missing so recovery logs are
      // actionable.
      return util::Status::IoError(
          "preadv: unexpected EOF at offset " + std::to_string(base + done) +
          " (requested " + std::to_string(total) + " bytes from offset " +
          std::to_string(base) + ", received " + std::to_string(done) + ")");
    }
    done += static_cast<size_t>(n);
    // Advance past iovecs the partial transfer fully covered, trimming the
    // first partially-covered one so the retry resumes mid-buffer.
    size_t advanced = static_cast<size_t>(n);
    while (advanced > 0 && skip < iov.size()) {
      if (advanced >= iov[skip].iov_len) {
        advanced -= iov[skip].iov_len;
        ++skip;
      } else {
        iov[skip].iov_base = static_cast<std::byte*>(iov[skip].iov_base) +
                             advanced;
        iov[skip].iov_len -= advanced;
        advanced = 0;
      }
    }
  }
  return util::Status::OK();
}

void SsdTier::RunBatch(std::vector<IoRequest>& batch) {
  const bool is_write = batch.front().is_write;
  ANGEL_SPAN("ssd", is_write ? "pwritev" : "preadv");
  util::Status status = WithRetries(is_write ? "ssd.pwrite" : "ssd.pread",
                                    [&] { return ExecuteBatchOnce(batch); });
  if (status.ok()) {
    size_t total = 0;
    for (const IoRequest& request : batch) total += request.bytes;
    if (is_write) {
      bytes_written_.fetch_add(total, std::memory_order_relaxed);
    } else {
      bytes_read_.fetch_add(total, std::memory_order_relaxed);
    }
    throttle_.Consume(total);
  }
  // A failed batch fails every request it coalesced with the same status;
  // each caller's retry-or-propagate decision already happened here (the
  // retry policy ran per batch attempt), so the error is terminal.
  for (IoRequest& request : batch) {
    request.done->set_value(status);
  }
}

std::vector<SsdTier::IoRequest> SsdTier::NextBatchLocked() {
  std::vector<IoRequest> batch;
  batch.push_back(std::move(io_queue_.front()));
  io_queue_.pop_front();
  // Single forward pass: chain queued requests whose byte range starts
  // exactly where the batch currently ends and that perform the same
  // operation. Later out-of-order arrivals stay queued for the next batch.
  uint64_t tail = batch.front().offset + batch.front().bytes;
  for (auto it = io_queue_.begin();
       it != io_queue_.end() && batch.size() < io_max_coalesce_;) {
    if (it->is_write == batch.front().is_write && it->offset == tail) {
      tail += it->bytes;
      batch.push_back(std::move(*it));
      it = io_queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

void SsdTier::WorkerLoop() {
  for (;;) {
    std::vector<IoRequest> batch;
    {
      util::MutexLock lock(io_mutex_);
      while (io_queue_.empty() && !io_stop_) io_work_cv_.Wait(io_mutex_);
      // Drain the queue fully before honoring stop, so Close() never
      // abandons an accepted request.
      if (io_queue_.empty()) return;
      batch = NextBatchLocked();
    }
    io_space_cv_.NotifyAll();
    io_batches_.fetch_add(1, std::memory_order_relaxed);
    RunBatch(batch);
  }
}

std::future<util::Status> SsdTier::Submit(IoRequest request) {
  std::future<util::Status> future = request.done->get_future();
  if (io_threads_.empty()) {
    // Synchronous legacy backend: execute inline, one syscall per request.
    std::vector<IoRequest> batch;
    batch.push_back(std::move(request));
    RunBatch(batch);
    return future;
  }
  {
    util::MutexLock lock(io_mutex_);
    while (io_queue_.size() >= io_queue_depth_ && !io_stop_) {
      io_space_cv_.Wait(io_mutex_);
    }
    if (io_stop_) {
      request.done->set_value(
          util::Status::Cancelled("SsdTier closing; request rejected"));
      return future;
    }
    io_queue_.push_back(std::move(request));
    max_queue_depth_ = std::max(max_queue_depth_, io_queue_.size());
  }
  queued_requests_.fetch_add(1, std::memory_order_relaxed);
  io_work_cv_.NotifyOne();
  return future;
}

std::future<util::Status> SsdTier::WriteFrameAsync(uint64_t offset,
                                                   const std::byte* src,
                                                   size_t bytes) {
  IoRequest request;
  request.is_write = true;
  request.offset = offset;
  // Writes never mutate through this pointer; IoRequest is shared with the
  // read path whose buffers are genuinely written to.
  request.buf = const_cast<std::byte*>(src);
  request.bytes = bytes;
  request.done = std::make_shared<std::promise<util::Status>>();
  if (util::Status validation = ValidateIo(bytes); !validation.ok()) {
    request.done->set_value(std::move(validation));
    return request.done->get_future();
  }
  return Submit(std::move(request));
}

std::future<util::Status> SsdTier::ReadFrameAsync(uint64_t offset,
                                                  std::byte* dst,
                                                  size_t bytes) {
  IoRequest request;
  request.is_write = false;
  request.offset = offset;
  request.buf = dst;
  request.bytes = bytes;
  request.done = std::make_shared<std::promise<util::Status>>();
  if (util::Status validation = ValidateIo(bytes); !validation.ok()) {
    request.done->set_value(std::move(validation));
    return request.done->get_future();
  }
  return Submit(std::move(request));
}

util::Status SsdTier::WriteFrame(uint64_t offset, const std::byte* src,
                                 size_t bytes) {
  return WriteFrameAsync(offset, src, bytes).get();
}

util::Status SsdTier::ReadFrame(uint64_t offset, std::byte* dst,
                                size_t bytes) {
  return ReadFrameAsync(offset, dst, bytes).get();
}

SsdTier::Stats SsdTier::Snapshot() const {
  Stats stats;
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  stats.io_retries = io_retries_.load(std::memory_order_relaxed);
  stats.queued_requests = queued_requests_.load(std::memory_order_relaxed);
  stats.io_batches = io_batches_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(io_mutex_);
    stats.max_queue_depth = max_queue_depth_;
  }
  stats.total_frames = total_frames_;
  stats.free_frames = free_frames();
  return stats;
}

}  // namespace angelptm::mem
