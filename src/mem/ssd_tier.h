#ifndef ANGELPTM_MEM_SSD_TIER_H_
#define ANGELPTM_MEM_SSD_TIER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mem/device.h"
#include "util/bandwidth_throttle.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::mem {

/// File-backed page store standing in for the NVMe SSD tier (the paper uses
/// DeepNVMe on 11 TB of SSD). Frames are fixed-size slots within one backing
/// file; reads and writes are real pread/pwrite calls so the lock-free
/// updating mechanism contends with genuine I/O latency.
///
/// I/O goes through a *submission-queue backend* (DESIGN.md §12): callers
/// enqueue requests (ReadFrameAsync / WriteFrameAsync, or the blocking
/// ReadFrame / WriteFrame wrappers) and a small worker pool drains a deep
/// request queue, merging requests that target adjacent frames into one
/// preadv/pwritev — the DeepNVMe-style batching that replaces one blocking
/// syscall per page. `io_workers = 0` selects the legacy synchronous path
/// (one inline syscall per call), which the SSD pipeline bench uses as its
/// baseline.
///
/// An optional bandwidth throttle (bytes/second) emulates the 3.5 GB/s SSD of
/// the paper's A100 servers when the local disk is faster; 0 disables it.
/// An optional per-operation latency (`io_op_latency_us`) emulates the NVMe
/// command overhead that makes deep queues and coalescing pay off on real
/// devices; it is charged once per syscall *attempt*, on both backends, so
/// sync-vs-async comparisons model the same device.
///
/// Transient I/O failures (flaky NVMe, EIO under pressure) are absorbed by a
/// retry-with-exponential-backoff policy at the request boundary; only errors
/// that persist across every attempt reach the caller. The failpoints
/// "ssd.pread" / "ssd.pwrite" (util::FaultInjector) fire per *attempt* on
/// both backends, so an nth-call rule models exactly one transient fault. A
/// batch that exhausts its retries fails every request it coalesced with the
/// same status.
class SsdTier {
 public:
  /// Retry policy for transient IoErrors on pread/pwrite. Attempt k waits
  /// min(base_backoff_us * multiplier^(k-1), max_backoff_us) before retrying.
  struct RetryPolicy {
    int max_attempts = 3;        // Total attempts (1 = no retries).
    int base_backoff_us = 100;   // Backoff before the first retry.
    double multiplier = 4.0;     // Exponential growth per retry.
    int max_backoff_us = 10000;  // Backoff ceiling.
  };

  struct Options {
    std::string path;           // Backing file path; created/truncated.
    uint64_t capacity_bytes = 0;
    size_t frame_bytes = 0;
    double throttle_bytes_per_sec = 0.0;
    RetryPolicy retry;
    /// Submission-queue backend: worker threads draining the request queue.
    /// 0 = synchronous legacy path (one inline syscall per call). Overridden
    /// by the ANGELPTM_SSD_IO_WORKERS environment variable when set.
    size_t io_workers = 2;
    /// Maximum queued (not yet picked up) requests before submitters block —
    /// the backpressure bound on queue depth. Overridden by
    /// ANGELPTM_SSD_IO_QUEUE_DEPTH when set.
    size_t io_queue_depth = 64;
    /// Maximum requests merged into one preadv/pwritev when they target
    /// adjacent byte ranges of the backing file. 1 disables coalescing.
    /// Overridden by ANGELPTM_SSD_IO_COALESCE when set.
    size_t io_max_coalesce = 8;
    /// Emulated per-syscall device command latency in microseconds, charged
    /// once per attempt on both backends (0 = none). Makes batching wins
    /// reproducible on hosts whose /tmp is a fast tmpfs.
    int io_op_latency_us = 0;
  };

  /// Structured I/O statistics of this tier instance; Snapshot() is the
  /// only place they are read (DESIGN.md §8).
  struct Stats {
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    /// Transient I/O failures absorbed by the retry policy (not surfaced).
    uint64_t io_retries = 0;
    /// Requests executed through the submission queue (0 on the sync path).
    uint64_t queued_requests = 0;
    /// Syscall batches issued by the queue workers; queued_requests /
    /// io_batches is the achieved coalescing factor.
    uint64_t io_batches = 0;
    /// High-water mark of the request queue length at submission time.
    size_t max_queue_depth = 0;
    size_t total_frames = 0;
    size_t free_frames = 0;
  };

  SsdTier() = default;
  ~SsdTier();

  SsdTier(const SsdTier&) = delete;
  SsdTier& operator=(const SsdTier&) = delete;

  /// Creates (or truncates) the backing file sized to hold
  /// floor(capacity / frame_bytes) frames, and spawns the submission-queue
  /// workers when the async backend is enabled.
  [[nodiscard]] util::Status Open(const Options& options)
      ANGEL_EXCLUDES(mutex_, io_mutex_);
  /// Drains every pending queued request, stops the workers, and closes and
  /// deletes the backing file. Concurrent I/O calls during Close are not
  /// supported.
  void Close() ANGEL_EXCLUDES(io_mutex_);
  bool is_open() const { return fd_ >= 0; }

  /// Acquires a free frame, returning its byte offset in the backing file.
  [[nodiscard]] util::Result<uint64_t> AcquireFrame() ANGEL_EXCLUDES(mutex_);
  /// Returns a frame to the free list — or, while the frame is pinned,
  /// defers that to its last UnpinFrames.
  void ReleaseFrame(uint64_t offset) ANGEL_EXCLUDES(mutex_);

  /// Frame pins (DESIGN.md §12.2): a pinned frame keeps its bytes until
  /// the last unpin, even if its page moves off it meanwhile.
  /// HierarchicalMemory writes a page to the tier only onto a freshly
  /// acquired frame, so a pin is a copy-on-write snapshot of the frame: a
  /// checkpoint cut pins the frames holding the master states, and its
  /// persist reads them later. Offsets are frame offsets; a frame may be
  /// pinned more than once.
  void PinFrames(const std::vector<uint64_t>& offsets) ANGEL_EXCLUDES(mutex_);
  /// Drops one pin of each frame, all under one lock hold so a waiter sees
  /// the whole set released at once; frees frames released while pinned.
  void UnpinFrames(const std::vector<uint64_t>& offsets)
      ANGEL_EXCLUDES(mutex_);
  /// Blocks while fewer than `needed` frames are free and a frame in
  /// `offsets` is still pinned: the wait of a writer whose next generation
  /// of those frames would not fit beside the pinned one. `on_block` runs
  /// once, under the tier lock, before it first blocks.
  void WaitForUnpin(const std::vector<uint64_t>& offsets, size_t needed,
                    const std::function<void()>& on_block)
      ANGEL_EXCLUDES(mutex_);
  /// Frames currently pinned (0 once every cut is persisted).
  size_t pinned_frames() const ANGEL_EXCLUDES(mutex_);

  /// Writes `bytes` from `src` to the frame at `offset`. Blocks until the
  /// write completed (through the queue when the async backend is on).
  [[nodiscard]] util::Status WriteFrame(uint64_t offset, const std::byte* src,
                                        size_t bytes) ANGEL_EXCLUDES(io_mutex_);
  /// Reads `bytes` into `dst` from byte `offset` of the backing file —
  /// a frame, or a span inside one (blocking, like WriteFrame).
  [[nodiscard]] util::Status ReadFrame(uint64_t offset, std::byte* dst,
                                       size_t bytes) ANGEL_EXCLUDES(io_mutex_);

  /// Enqueues a frame write and returns the completion future. `src` must
  /// stay valid until the future resolves. On the sync backend the request
  /// is executed inline and the future is already resolved.
  [[nodiscard]] std::future<util::Status> WriteFrameAsync(uint64_t offset,
                                                          const std::byte* src,
                                                          size_t bytes)
      ANGEL_EXCLUDES(io_mutex_);
  /// Enqueues a frame read; same contract as WriteFrameAsync.
  [[nodiscard]] std::future<util::Status> ReadFrameAsync(uint64_t offset,
                                                         std::byte* dst,
                                                         size_t bytes)
      ANGEL_EXCLUDES(io_mutex_);

  size_t frame_bytes() const { return frame_bytes_; }
  size_t total_frames() const { return total_frames_; }
  size_t free_frames() const ANGEL_EXCLUDES(mutex_);
  uint64_t capacity_bytes() const {
    return uint64_t{total_frames_} * frame_bytes_;
  }
  /// Workers actually running (after the env override); 0 = sync backend.
  size_t io_workers() const { return io_threads_.size(); }

  /// Point-in-time copy of this instance's I/O statistics.
  Stats Snapshot() const;

 private:
  /// One queued I/O request. `buf` is the caller's frame buffer (read
  /// destination or write source); the const_cast for writes never mutates.
  struct IoRequest {
    bool is_write = false;
    uint64_t offset = 0;
    std::byte* buf = nullptr;
    size_t bytes = 0;
    std::shared_ptr<std::promise<util::Status>> done;
  };

  [[nodiscard]] util::Status ValidateIo(size_t bytes) const;
  /// Frame index of a frame offset; aborts on a misaligned or out-of-range
  /// offset (a programming error).
  uint32_t FrameIndex(uint64_t offset) const;
  /// Submits to the queue (async backend) or executes inline (sync backend).
  [[nodiscard]] std::future<util::Status> Submit(IoRequest request)
      ANGEL_EXCLUDES(io_mutex_);
  void WorkerLoop() ANGEL_EXCLUDES(io_mutex_);
  /// Pops the next request plus every queued request that chains onto it
  /// (same op, adjacent offsets), up to io_max_coalesce.
  std::vector<IoRequest> NextBatchLocked() ANGEL_REQUIRES(io_mutex_);
  /// Executes one batch under the retry policy and resolves its promises.
  void RunBatch(std::vector<IoRequest>& batch);
  /// One preadv/pwritev attempt over the whole batch (no retries); fires
  /// the per-attempt failpoint and the emulated op latency.
  [[nodiscard]] util::Status ExecuteBatchOnce(
      const std::vector<IoRequest>& batch);
  /// Runs `attempt` under the retry policy, backing off on transient
  /// IoErrors. `site` names the operation for diagnostics.
  template <typename Attempt>
  [[nodiscard]] util::Status WithRetries(const char* site, Attempt&& attempt);

  // Set once in Open() before any I/O can run; read-only afterwards, so
  // deliberately unguarded.
  int fd_ = -1;
  std::string path_;
  size_t frame_bytes_ = 0;
  size_t total_frames_ = 0;
  RetryPolicy retry_;
  size_t io_queue_depth_ = 0;
  size_t io_max_coalesce_ = 1;
  int io_op_latency_us_ = 0;
  std::vector<std::thread> io_threads_;

  /// A pinned frame: its pin count, and whether ReleaseFrame ran while it
  /// was pinned (the free then happens at the last unpin).
  struct FramePin {
    uint32_t count = 0;
    bool released = false;
  };

  mutable util::Mutex mutex_{"ssd.state", util::lockrank::kSsdState};
  std::vector<uint32_t> free_list_ ANGEL_GUARDED_BY(mutex_);
  std::unordered_map<uint32_t, FramePin> pins_ ANGEL_GUARDED_BY(mutex_);
  util::CondVar unpin_cv_;  // WaitForUnpin waits here.

  mutable util::Mutex io_mutex_{"ssd.io", util::lockrank::kSsdIoQueue};
  util::CondVar io_work_cv_;   // Workers wait here for requests.
  util::CondVar io_space_cv_;  // Submitters wait here under backpressure.
  std::deque<IoRequest> io_queue_ ANGEL_GUARDED_BY(io_mutex_);
  bool io_stop_ ANGEL_GUARDED_BY(io_mutex_) = false;
  size_t max_queue_depth_ ANGEL_GUARDED_BY(io_mutex_) = 0;

  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> queued_requests_{0};
  std::atomic<uint64_t> io_batches_{0};
  util::BandwidthThrottle throttle_;
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_SSD_TIER_H_
