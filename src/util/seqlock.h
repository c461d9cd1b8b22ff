#ifndef ANGELPTM_UTIL_SEQLOCK_H_
#define ANGELPTM_UTIL_SEQLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

/// Seqlock / double-buffer publication for read-mostly hot paths
/// (DESIGN.md §13). Writers are serialized externally (typically by the
/// mutex that already orders mutations); readers take no lock at all and
/// retry the rare read that overlaps a write.
///
/// Protocol (the Boehm "Can seqlocks get along with programming language
/// memory models?" pattern, which is what the NERvGear LocklessUpdater
/// idiom in SNIPPETS.md §3 implements with counters):
///
///   writer: seq.store(s+1, relaxed)        // odd: write in progress
///           fence(release)
///           payload words, relaxed stores
///           seq.store(s+2, release)        // even again
///
///   reader: s1 = seq.load(acquire); if (s1 odd) retry
///           payload words, relaxed loads
///           fence(acquire)
///           if (seq.load(relaxed) != s1) retry
///
/// The payload lives in std::atomic<uint32_t> words so the racing loads and
/// stores are *atomic* races — defined behaviour the fences order, and one
/// ThreadSanitizer understands (no false positives, no torn words).

namespace angelptm::util {

/// Runtime-sized seqlock-published word buffer. `num_words()` uint32_t
/// payload words, fixed at Reset() time. Single external writer at a time;
/// any number of concurrent lock-free readers.
class SeqLockBuffer {
 public:
  SeqLockBuffer() = default;
  SeqLockBuffer(const SeqLockBuffer&) = delete;
  SeqLockBuffer& operator=(const SeqLockBuffer&) = delete;

  /// (Re)sizes the payload. Not thread-safe: call before readers exist.
  void Reset(size_t num_words) {
    words_ = std::vector<std::atomic<uint32_t>>(num_words);
    seq_.store(0, std::memory_order_relaxed);
  }

  size_t num_words() const { return words_.size(); }

  /// Monotonic publication version: bumps by 2 per write. Readers can
  /// compare versions across fetches without re-reading the payload.
  uint64_t version() const { return seq_.load(std::memory_order_acquire); }

  /// Publishes through `fill(store)`: `fill` calls `store(offset, src,
  /// bytes)` to copy `bytes` bytes from `src` into payload bytes
  /// [offset, offset + bytes), which must lie within 4 * num_words(); bytes
  /// it does not store keep their previous value. For payloads produced
  /// piecewise (the updater converts its fp16 parameters into the payload
  /// one stack chunk at a time), so no caller stages them in one flat
  /// buffer. Callers must serialize writers externally (two concurrent
  /// writes are a logic error).
  template <typename Fill>
  void WriteWith(Fill&& fill) {
    const uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    fill([this](size_t offset, const void* src, size_t bytes) {
      StoreBytes(offset, static_cast<const std::byte*>(src), bytes);
    });
    seq_.store(s + 2, std::memory_order_release);
  }

  /// Publishes `num_words()` words from `src`.
  void Write(const uint32_t* src) {
    WriteWith([this, src](auto store) { store(0, src, 4 * words_.size()); });
  }

  /// One read attempt through `visit(load)`: `visit` calls `load(offset,
  /// dst, bytes)` to copy payload bytes [offset, offset + bytes) into
  /// `dst`. Returns false if a write overlapped; what `visit` copied may
  /// then be torn, and the caller must redo it (ReadWith retries).
  template <typename Visit>
  bool TryReadWith(Visit&& visit) const {
    const uint64_t s1 = seq_.load(std::memory_order_acquire);
    if (s1 & 1) return false;
    visit([this](size_t offset, void* dst, size_t bytes) {
      LoadBytes(offset, static_cast<std::byte*>(dst), bytes);
    });
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq_.load(std::memory_order_relaxed) == s1;
  }

  /// Runs `visit` as TryReadWith does until one attempt saw no write.
  /// Writers are brief, so the retry loop terminates quickly; there is no
  /// writer-starvation path because readers never block writers.
  template <typename Visit>
  void ReadWith(Visit&& visit) const {
    while (!TryReadWith(visit)) {
    }
  }

  /// One consistent read attempt into `dst` (num_words() words). Returns
  /// false if a write overlapped; Read() below is the retrying form.
  bool TryRead(uint32_t* dst) const {
    return TryReadWith(
        [this, dst](auto load) { load(0, dst, 4 * words_.size()); });
  }

  /// Copies a consistent snapshot into `dst`, retrying until one is
  /// obtained.
  void Read(uint32_t* dst) const {
    ReadWith([this, dst](auto load) { load(0, dst, 4 * words_.size()); });
  }

 private:
  // Payload bytes are the words' bytes in memory order. Every access is a
  // relaxed atomic word load or store; a word the range covers only in part
  // is merged with its current value (the writer's own, as writers are
  // serialized).
  void StoreBytes(size_t offset, const std::byte* src, size_t bytes) {
    size_t w = offset / 4;
    const size_t skip = offset % 4;
    if (skip != 0 && bytes > 0) {
      const size_t take = std::min(bytes, 4 - skip);
      uint32_t word = words_[w].load(std::memory_order_relaxed);
      std::memcpy(reinterpret_cast<std::byte*>(&word) + skip, src, take);
      words_[w++].store(word, std::memory_order_relaxed);
      src += take;
      bytes -= take;
    }
    for (; bytes >= 4; ++w, src += 4, bytes -= 4) {
      uint32_t word;
      std::memcpy(&word, src, 4);
      words_[w].store(word, std::memory_order_relaxed);
    }
    if (bytes > 0) {
      uint32_t word = words_[w].load(std::memory_order_relaxed);
      std::memcpy(&word, src, bytes);
      words_[w].store(word, std::memory_order_relaxed);
    }
  }

  void LoadBytes(size_t offset, std::byte* dst, size_t bytes) const {
    size_t w = offset / 4;
    const size_t skip = offset % 4;
    if (skip != 0 && bytes > 0) {
      const size_t take = std::min(bytes, 4 - skip);
      const uint32_t word = words_[w++].load(std::memory_order_relaxed);
      std::memcpy(dst, reinterpret_cast<const std::byte*>(&word) + skip,
                  take);
      dst += take;
      bytes -= take;
    }
    for (; bytes >= 4; ++w, dst += 4, bytes -= 4) {
      const uint32_t word = words_[w].load(std::memory_order_relaxed);
      std::memcpy(dst, &word, 4);
    }
    if (bytes > 0) {
      const uint32_t word = words_[w].load(std::memory_order_relaxed);
      std::memcpy(dst, &word, bytes);
    }
  }

  std::atomic<uint64_t> seq_{0};
  std::vector<std::atomic<uint32_t>> words_;
};

}  // namespace angelptm::util

#endif  // ANGELPTM_UTIL_SEQLOCK_H_
