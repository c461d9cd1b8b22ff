#include "mem/ssd_tier.h"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault_injector.h"

namespace angelptm::mem {
namespace {

constexpr size_t kFrame = 4096;

std::string TempPath(const char* tag) {
  return std::string("/tmp/angelptm_ssd_test_") + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

SsdTier::Options MakeOptions(const char* tag, uint64_t capacity,
                             double throttle = 0.0) {
  SsdTier::Options o;
  o.path = TempPath(tag);
  o.capacity_bytes = capacity;
  o.frame_bytes = kFrame;
  o.throttle_bytes_per_sec = throttle;
  return o;
}

TEST(SsdTierTest, OpenCreatesSizedFile) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("open", 10 * kFrame)).ok());
  EXPECT_TRUE(tier.is_open());
  EXPECT_EQ(tier.total_frames(), 10u);
  EXPECT_EQ(tier.free_frames(), 10u);
  EXPECT_EQ(tier.capacity_bytes(), 10 * kFrame);
}

TEST(SsdTierTest, OpenRejectsCapacitySmallerThanFrame) {
  SsdTier tier;
  // A tier that cannot hold even one frame is a misconfiguration, not an
  // empty-but-valid tier.
  const auto status = tier.Open(MakeOptions("tiny", kFrame - 1));
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_FALSE(tier.is_open());
  // Validation happens before the backing file is created.
  EXPECT_NE(::access(TempPath("tiny").c_str(), F_OK), 0);
}

TEST(SsdTierTest, OpenRejectsZeroFrameBytes) {
  SsdTier tier;
  SsdTier::Options o = MakeOptions("zerof", 4 * kFrame);
  o.frame_bytes = 0;
  EXPECT_TRUE(tier.Open(o).IsInvalidArgument());
}

TEST(SsdTierTest, OpenRejectsFrameIndexOverflow) {
  SsdTier tier;
  // More frames than fit in the uint32_t free-list entries must be rejected
  // up front, not silently truncated to a wrapped frame count.
  SsdTier::Options o = MakeOptions("wrap", (1ull << 32) + 5);
  o.frame_bytes = 1;
  const auto status = tier.Open(o);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_FALSE(tier.is_open());
  EXPECT_NE(::access(TempPath("wrap").c_str(), F_OK), 0);
}

TEST(SsdTierTest, DoubleOpenFails) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("dbl", 2 * kFrame)).ok());
  EXPECT_EQ(tier.Open(MakeOptions("dbl2", 2 * kFrame)).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(SsdTierTest, WriteReadRoundTrip) {
  // Every retry answers one injected transient fault: none under plain
  // ctest, one when the whole binary runs with ssd.pwrite=nth:1 armed.
  const util::FaultInjector& faults = util::FaultInjector::Instance();
  const auto fires = [&faults] {
    return faults.fires("ssd.pwrite") + faults.fires("ssd.pread");
  };
  const uint64_t fires_before = fires();
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("rw", 4 * kFrame)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());

  std::vector<std::byte> out(kFrame);
  for (size_t i = 0; i < kFrame; ++i) out[i] = std::byte(i & 0xFF);
  ASSERT_TRUE(tier.WriteFrame(*offset, out.data(), kFrame).ok());

  std::vector<std::byte> in(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*offset, in.data(), kFrame).ok());
  EXPECT_EQ(std::memcmp(out.data(), in.data(), kFrame), 0);
  const SsdTier::Stats stats = tier.Snapshot();
  EXPECT_EQ(stats.bytes_written, kFrame);
  EXPECT_EQ(stats.bytes_read, kFrame);
  EXPECT_EQ(stats.io_retries, fires() - fires_before);
  EXPECT_EQ(stats.total_frames, 4u);
}

TEST(SsdTierTest, FramesIndependent) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("indep", 4 * kFrame)).ok());
  auto a = tier.AcquireFrame();
  auto b = tier.AcquireFrame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);

  std::vector<std::byte> da(kFrame, std::byte{0xAA});
  std::vector<std::byte> db(kFrame, std::byte{0xBB});
  ASSERT_TRUE(tier.WriteFrame(*a, da.data(), kFrame).ok());
  ASSERT_TRUE(tier.WriteFrame(*b, db.data(), kFrame).ok());

  std::vector<std::byte> check(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*a, check.data(), kFrame).ok());
  EXPECT_EQ(check[0], std::byte{0xAA});
  ASSERT_TRUE(tier.ReadFrame(*b, check.data(), kFrame).ok());
  EXPECT_EQ(check[0], std::byte{0xBB});
}

TEST(SsdTierTest, ExhaustionAndRelease) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("exh", 2 * kFrame)).ok());
  auto a = tier.AcquireFrame();
  auto b = tier.AcquireFrame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(tier.AcquireFrame().status().IsResourceExhausted());
  tier.ReleaseFrame(*a);
  EXPECT_TRUE(tier.AcquireFrame().ok());
}

TEST(SsdTierTest, PartialFrameIo) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("part", 2 * kFrame)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  std::vector<std::byte> data(100, std::byte{0x42});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), 100).ok());
  std::vector<std::byte> back(100);
  ASSERT_TRUE(tier.ReadFrame(*offset, back.data(), 100).ok());
  EXPECT_EQ(back[99], std::byte{0x42});
}

TEST(SsdTierTest, OversizeIoRejected) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("over", 2 * kFrame)).ok());
  auto offset = tier.AcquireFrame();
  std::vector<std::byte> data(kFrame + 1);
  EXPECT_TRUE(
      tier.WriteFrame(*offset, data.data(), kFrame + 1).IsInvalidArgument());
  EXPECT_TRUE(
      tier.ReadFrame(*offset, data.data(), kFrame + 1).IsInvalidArgument());
}

TEST(SsdTierTest, IoOnClosedTierFails) {
  SsdTier tier;
  std::byte b{};
  EXPECT_EQ(tier.WriteFrame(0, &b, 1).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(tier.ReadFrame(0, &b, 1).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(SsdTierTest, ThrottleSlowsIo) {
  SsdTier tier;
  // 1 MiB/s: writing 16 frames of 4 KiB (64 KiB) should take >= ~50 ms.
  ASSERT_TRUE(
      tier.Open(MakeOptions("thr", 16 * kFrame, 1024.0 * 1024)).ok());
  std::vector<std::byte> data(kFrame, std::byte{1});
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 16; ++i) {
    auto offset = tier.AcquireFrame();
    ASSERT_TRUE(offset.ok());
    ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.05);
}

TEST(SsdTierTest, ConcurrentCallersEachCompleteTheirOwnRequests) {
  // The trainer, the updater and the checkpoint persist call the tier from
  // their own threads; each request is one syscall on its caller's thread.
  constexpr int kThreads = 4;
  constexpr int kFramesPerThread = 4;
  SsdTier tier;
  ASSERT_TRUE(
      tier.Open(MakeOptions("conc", kThreads * kFramesPerThread * kFrame))
          .ok());
  std::vector<uint64_t> offsets;
  for (int i = 0; i < kThreads * kFramesPerThread; ++i) {
    auto offset = tier.AcquireFrame();
    ASSERT_TRUE(offset.ok());
    offsets.push_back(*offset);
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> out(kFrame);
      std::vector<std::byte> in(kFrame);
      for (int round = 0; round < 8; ++round) {
        for (int f = 0; f < kFramesPerThread; ++f) {
          const int frame = t * kFramesPerThread + f;
          std::memset(out.data(), (frame * 8 + round) & 0xFF, kFrame);
          if (!tier.WriteFrame(offsets[frame], out.data(), kFrame).ok() ||
              !tier.ReadFrame(offsets[frame], in.data(), kFrame).ok() ||
              in != out) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  // One request, one syscall: the coalescing factor perfbench reports is 1.
  constexpr uint64_t kRequests = 2 * kThreads * kFramesPerThread * 8;
  const SsdTier::Stats stats = tier.Snapshot();
  EXPECT_EQ(stats.io_batches, kRequests);
  EXPECT_EQ(stats.queued_requests, kRequests);
  EXPECT_EQ(stats.bytes_written, kRequests / 2 * kFrame);
  EXPECT_EQ(stats.bytes_read, kRequests / 2 * kFrame);

  // A request rejected before the device is not counted.
  std::vector<std::byte> big(kFrame + 1);
  EXPECT_TRUE(
      tier.WriteFrame(offsets[0], big.data(), big.size()).IsInvalidArgument());
  EXPECT_EQ(tier.Snapshot().io_batches, kRequests);
}

TEST(SsdTierTest, ShortReadErrorCarriesOffsetAndByteContext) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("eof", 4 * kFrame)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  std::vector<std::byte> data(kFrame, std::byte{0x33});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());

  // Truncate the backing file out from under the tier: the next read hits
  // EOF mid-range and must say where and how much was missing.
  ASSERT_EQ(::truncate(TempPath("eof").c_str(), 0), 0);
  const util::Status status = tier.ReadFrame(*offset, data.data(), kFrame);
  ASSERT_TRUE(status.IsIoError()) << status;
  const std::string message = status.ToString();
  EXPECT_NE(message.find("unexpected EOF"), std::string::npos) << message;
  EXPECT_NE(message.find("offset " + std::to_string(*offset)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("requested " + std::to_string(kFrame)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("received 0"), std::string::npos) << message;
}

TEST(SsdTierTest, DeleteOnCloseRemovesFile) {
  const std::string path = TempPath("del");
  {
    SsdTier tier;
    SsdTier::Options o;
    o.path = path;
    o.capacity_bytes = 2 * kFrame;
    o.frame_bytes = kFrame;
    ASSERT_TRUE(tier.Open(o).ok());
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(SsdTierTest, PinnedFrameKeepsItsBytesUntilTheLastUnpin) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("pin", 2 * kFrame)).ok());
  auto frame = tier.AcquireFrame();
  ASSERT_TRUE(frame.ok());
  std::vector<std::byte> bytes(kFrame, std::byte{0x5A});
  ASSERT_TRUE(tier.WriteFrame(*frame, bytes.data(), kFrame).ok());

  // Pinned twice, then released: the frame stays out of the free list,
  // readable, until the second unpin.
  tier.PinFrames({*frame, *frame});
  EXPECT_EQ(tier.pinned_frames(), 1u);
  tier.ReleaseFrame(*frame);
  EXPECT_EQ(tier.free_frames(), 1u);
  tier.UnpinFrames({*frame});
  EXPECT_EQ(tier.free_frames(), 1u);
  std::vector<std::byte> read(16);
  ASSERT_TRUE(tier.ReadFrame(*frame + 8, read.data(), read.size()).ok());
  EXPECT_EQ(read, std::vector<std::byte>(16, std::byte{0x5A}));
  tier.UnpinFrames({*frame});
  EXPECT_EQ(tier.pinned_frames(), 0u);
  EXPECT_EQ(tier.free_frames(), 2u);

  // A frame unpinned before its release is freed by the release itself.
  tier.PinFrames({*frame});
  tier.UnpinFrames({*frame});
  EXPECT_EQ(tier.free_frames(), 2u);
}

TEST(SsdTierTest, WaitForUnpinBlocksOnlyWhilePinnedAndShort) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(MakeOptions("pinwait", 3 * kFrame)).ok());
  auto a = tier.AcquireFrame();
  auto b = tier.AcquireFrame();
  ASSERT_TRUE(a.ok() && b.ok());
  int blocked = 0;
  const auto count = [&blocked] { ++blocked; };
  // One frame free: enough for a one-frame generation, so no wait even
  // though the frame is pinned; unpinned frames never wait.
  tier.PinFrames({*a});
  tier.WaitForUnpin({*a}, 1, count);
  tier.WaitForUnpin({*b}, 2, count);
  EXPECT_EQ(blocked, 0);

  // Two frames needed, one free, `a` pinned: blocks until the unpin.
  tier.ReleaseFrame(*a);  // Deferred: still pinned.
  std::future<void> waiter = std::async(std::launch::async, [&] {
    tier.WaitForUnpin({*a, *b}, 2, count);
  });
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  tier.UnpinFrames({*a});
  waiter.get();
  EXPECT_EQ(blocked, 1);
  EXPECT_EQ(tier.free_frames(), 2u);
}

}  // namespace
}  // namespace angelptm::mem
