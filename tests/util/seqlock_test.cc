#include "util/seqlock.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace angelptm::util {
namespace {

TEST(SeqLockBufferTest, SingleThreadedWriteReadRoundTrip) {
  SeqLockBuffer buffer;
  buffer.Reset(4);
  EXPECT_EQ(buffer.num_words(), 4u);
  EXPECT_EQ(buffer.version(), 0u);

  const uint32_t payload[4] = {1, 2, 3, 0xdeadbeef};
  buffer.Write(payload);
  EXPECT_EQ(buffer.version(), 2u);

  uint32_t out[4] = {};
  buffer.Read(out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], payload[i]);

  ASSERT_TRUE(buffer.TryRead(out));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], payload[i]);
}

TEST(SeqLockBufferTest, VersionBumpsByTwoPerWrite) {
  SeqLockBuffer buffer;
  buffer.Reset(1);
  const uint32_t word = 7;
  for (int i = 1; i <= 5; ++i) {
    buffer.Write(&word);
    EXPECT_EQ(buffer.version(), uint64_t(2 * i));
  }
}

TEST(SeqLockBufferTest, ByteRangesCoverPartialWords) {
  // The fp16 mirror stores and loads 2-byte-granular ranges: a range may
  // start or end mid-word, and the bytes of that word outside it must keep
  // their value.
  SeqLockBuffer buffer;
  buffer.Reset(4);
  const uint32_t base[4] = {0x11111111u, 0x22222222u, 0x33333333u,
                            0x44444444u};
  buffer.Write(base);
  const uint16_t patch[5] = {0xA0A1, 0xA2A3, 0xA4A5, 0xA6A7, 0xA8A9};
  buffer.WriteWith([&patch](auto store) { store(2, patch, sizeof(patch)); });
  EXPECT_EQ(buffer.version(), 4u);

  uint16_t expected[8];
  std::memcpy(expected, base, sizeof(base));
  std::memcpy(expected + 1, patch, sizeof(patch));
  // Loads at every 2-byte start and length see those bytes.
  for (size_t first = 0; first < 8; ++first) {
    for (size_t n = 0; first + n <= 8; ++n) {
      uint16_t got[8] = {};
      buffer.ReadWith(
          [&got, first, n](auto load) { load(2 * first, got, 2 * n); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], expected[first + i])
            << "first " << first << ", n " << n;
      }
    }
  }
}

TEST(SeqLockBufferTest, ResetResizesAndRewindsVersion) {
  SeqLockBuffer buffer;
  buffer.Reset(2);
  const uint32_t words[2] = {1, 2};
  buffer.Write(words);
  buffer.Reset(8);
  EXPECT_EQ(buffer.num_words(), 8u);
  EXPECT_EQ(buffer.version(), 0u);
}

TEST(SeqLockBufferTest, NoTornReadsUnderConcurrentWrites) {
  // The central seqlock property: every snapshot a reader obtains is one
  // the writer published in full — never a mix of two writes. The writer
  // fills the whole payload with one generation value, so any torn read
  // shows up as a word mismatch. Run under TSan, this is also the torn-
  // read stress for the protocol's fences (ISSUE satellite d).
  constexpr size_t kWords = 64;
  constexpr int kReaders = 4;
  SeqLockBuffer buffer;
  buffer.Reset(kWords);
  const uint32_t zero[kWords] = {};
  buffer.Write(zero);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inconsistent{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint32_t snapshot[kWords];
      while (!stop.load(std::memory_order_relaxed)) {
        buffer.Read(snapshot);
        for (size_t i = 1; i < kWords; ++i) {
          if (snapshot[i] != snapshot[0]) {
            inconsistent.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  uint32_t generation[kWords];
  for (uint32_t g = 1; g <= 20000; ++g) {
    for (size_t i = 0; i < kWords; ++i) generation[i] = g;
    buffer.Write(generation);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(buffer.version(), uint64_t(2 * 20001));
}

struct Pair {
  uint64_t a = 0;
  uint64_t b = 0;
};

TEST(SeqLockTest, TypedCellRoundTrip) {
  SeqLock<Pair> cell(Pair{1, 2});
  Pair got = cell.Read();
  EXPECT_EQ(got.a, 1u);
  EXPECT_EQ(got.b, 2u);
  cell.Write(Pair{10, 20});
  got = cell.Read();
  EXPECT_EQ(got.a, 10u);
  EXPECT_EQ(got.b, 20u);
  EXPECT_EQ(cell.version(), 2u);
}

TEST(SeqLockTest, TypedCellNeverTearsAcrossFields) {
  // Writer publishes {g, ~g}; readers must never observe fields from two
  // different writes.
  SeqLock<Pair> cell(Pair{0, ~uint64_t(0)});
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Pair got = cell.Read();
        if (got.b != ~got.a) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (uint64_t g = 1; g <= 50000; ++g) cell.Write(Pair{g, ~g});
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0u);
}

}  // namespace
}  // namespace angelptm::util
