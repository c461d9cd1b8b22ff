#ifndef ANGELPTM_MEM_SSD_TIER_H_
#define ANGELPTM_MEM_SSD_TIER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
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
/// I/O is synchronous (DESIGN.md §12.2): ReadFrame / WriteFrame issue one
/// pread / pwrite on the calling thread and return when it completed, so
/// concurrent callers (the trainer, the updater, the checkpoint persist)
/// each drive their own request and no request waits on another's.
///
/// An optional bandwidth throttle (bytes/second) emulates the 3.5 GB/s SSD of
/// the paper's A100 servers when the local disk is faster; 0 disables it.
///
/// Transient I/O failures (flaky NVMe, EIO under pressure) are absorbed at
/// the request boundary by util::RetryTransient's fixed schedule: any
/// IoError is retried, and only errors that persist across every attempt
/// reach the caller. The failpoints "ssd.pread" / "ssd.pwrite"
/// (util::FaultInjector) fire per *attempt*, so an nth-call rule models
/// exactly one transient fault.
class SsdTier {
 public:
  struct Options {
    std::string path;           // Backing file path; created/truncated.
    uint64_t capacity_bytes = 0;
    size_t frame_bytes = 0;
    double throttle_bytes_per_sec = 0.0;
  };

  /// Structured I/O statistics of this tier instance; Snapshot() is the
  /// only place they are read (DESIGN.md §8).
  struct Stats {
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    /// Transient I/O failures absorbed by a retry (not surfaced).
    uint64_t io_retries = 0;
    /// Requests that reached the backing file, one pread/pwrite each
    /// (retries and partial-transfer continuations aside).
    uint64_t io_batches = 0;
    /// The same count as io_batches: every request is its own syscall.
    /// perfbench divides the two for its ssd.coalesce_factor metric.
    uint64_t queued_requests = 0;
    size_t total_frames = 0;
    size_t free_frames = 0;
  };

  SsdTier() = default;
  ~SsdTier();

  SsdTier(const SsdTier&) = delete;
  SsdTier& operator=(const SsdTier&) = delete;

  /// Creates (or truncates) the backing file sized to hold
  /// floor(capacity / frame_bytes) frames.
  [[nodiscard]] util::Status Open(const Options& options)
      ANGEL_EXCLUDES(mutex_);
  /// Closes and deletes the backing file. Concurrent I/O calls during Close
  /// are not supported.
  void Close();
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

  /// Writes `bytes` from `src` to the frame at `offset`; returns when the
  /// pwrite completed.
  [[nodiscard]] util::Status WriteFrame(uint64_t offset, const std::byte* src,
                                        size_t bytes);
  /// Reads `bytes` into `dst` from byte `offset` of the backing file —
  /// a frame, or a span inside one (blocking, like WriteFrame).
  [[nodiscard]] util::Status ReadFrame(uint64_t offset, std::byte* dst,
                                       size_t bytes);

  size_t frame_bytes() const { return frame_bytes_; }
  size_t total_frames() const { return total_frames_; }
  size_t free_frames() const ANGEL_EXCLUDES(mutex_);
  uint64_t capacity_bytes() const {
    return uint64_t{total_frames_} * frame_bytes_;
  }

  /// Point-in-time copy of this instance's I/O statistics.
  Stats Snapshot() const;

 private:
  [[nodiscard]] util::Status ValidateIo(size_t bytes) const;
  /// Frame index of a frame offset; aborts on a misaligned or out-of-range
  /// offset (a programming error).
  uint32_t FrameIndex(uint64_t offset) const;
  /// One request under the retry schedule, with its byte accounting.
  /// `buf` is the read destination or the write source (never mutated).
  [[nodiscard]] util::Status Transfer(bool is_write, uint64_t offset,
                                      std::byte* buf, size_t bytes);
  /// One pread/pwrite attempt (no retries), resumed after partial
  /// transfers; fires the per-attempt failpoint.
  [[nodiscard]] util::Status TransferOnce(bool is_write, uint64_t offset,
                                          std::byte* buf, size_t bytes);

  // Set once in Open() before any I/O can run; read-only afterwards, so
  // deliberately unguarded.
  int fd_ = -1;
  std::string path_;
  size_t frame_bytes_ = 0;
  size_t total_frames_ = 0;

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

  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> io_requests_{0};
  util::BandwidthThrottle throttle_;
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_SSD_TIER_H_
