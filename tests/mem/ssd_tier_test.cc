#include "mem/ssd_tier.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

/// Pins an env var for one test and restores the previous value on exit.
/// Tests asserting on a *specific* backend must pin ANGELPTM_SSD_IO_WORKERS
/// through this, or check.sh --ssd (which exports it for the whole binary)
/// would silently repoint them.
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    const char* old = ::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnvVar() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

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
  EXPECT_EQ(stats.io_retries, 0u);
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

TEST(SsdTierTest, AsyncRoundTripThroughSubmissionQueue) {
  const ScopedEnvVar pin("ANGELPTM_SSD_IO_WORKERS", "2");
  SsdTier tier;
  SsdTier::Options o = MakeOptions("async", 8 * kFrame);
  o.io_workers = 2;
  ASSERT_TRUE(tier.Open(o).ok());
  EXPECT_EQ(tier.io_workers(), 2u);

  std::vector<uint64_t> offsets;
  std::vector<std::vector<std::byte>> bufs;
  for (int i = 0; i < 8; ++i) {
    auto offset = tier.AcquireFrame();
    ASSERT_TRUE(offset.ok());
    offsets.push_back(*offset);
    bufs.emplace_back(kFrame, std::byte(i + 1));
  }
  std::vector<std::future<util::Status>> writes;
  for (int i = 0; i < 8; ++i) {
    writes.push_back(tier.WriteFrameAsync(offsets[i], bufs[i].data(), kFrame));
  }
  for (auto& f : writes) EXPECT_TRUE(f.get().ok());

  std::vector<std::vector<std::byte>> in(8, std::vector<std::byte>(kFrame));
  std::vector<std::future<util::Status>> reads;
  for (int i = 0; i < 8; ++i) {
    reads.push_back(tier.ReadFrameAsync(offsets[i], in[i].data(), kFrame));
  }
  for (auto& f : reads) EXPECT_TRUE(f.get().ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(in[i][kFrame - 1], std::byte(i + 1)) << i;
  }
  const SsdTier::Stats stats = tier.Snapshot();
  EXPECT_EQ(stats.queued_requests, 16u);
  EXPECT_GE(stats.io_batches, 1u);
  EXPECT_LE(stats.io_batches, 16u);
  EXPECT_EQ(stats.bytes_written, 8 * kFrame);
  EXPECT_EQ(stats.bytes_read, 8 * kFrame);
}

TEST(SsdTierTest, AdjacentRequestsCoalesceIntoFewerSyscalls) {
  SsdTier tier;
  SsdTier::Options o = MakeOptions("coalesce", 16 * kFrame);
  o.io_workers = 1;  // One worker: requests pile up behind the first...
  o.io_op_latency_us = 20000;  // ...because each syscall takes >= 20 ms.
  o.io_max_coalesce = 8;
  ASSERT_TRUE(tier.Open(o).ok());

  // AcquireFrame hands out sequential offsets, so these 8 writes target
  // adjacent byte ranges and must merge into a handful of pwritev batches.
  std::vector<std::vector<std::byte>> bufs;
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 8; ++i) {
    auto offset = tier.AcquireFrame();
    ASSERT_TRUE(offset.ok());
    offsets.push_back(*offset);
    bufs.emplace_back(kFrame, std::byte(0x10 + i));
  }
  std::vector<std::future<util::Status>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(tier.WriteFrameAsync(offsets[i], bufs[i].data(), kFrame));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const SsdTier::Stats stats = tier.Snapshot();
  EXPECT_EQ(stats.queued_requests, 8u);
  // The worker was asleep in its first syscall while 7 requests queued, so
  // at most the first batch ran alone: strictly fewer batches than requests.
  EXPECT_LT(stats.io_batches, 8u);
  EXPECT_GE(stats.max_queue_depth, 2u);

  // Coalesced writes landed in the right frames.
  std::vector<std::byte> check(kFrame);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(tier.ReadFrame(offsets[i], check.data(), kFrame).ok());
    EXPECT_EQ(check[0], std::byte(0x10 + i)) << i;
  }
}

TEST(SsdTierTest, ShortReadErrorCarriesOffsetAndByteContext) {
  SsdTier tier;
  SsdTier::Options o = MakeOptions("eof", 4 * kFrame);
  o.io_workers = 0;  // Error surfaces identically on either backend.
  o.retry.max_attempts = 1;
  ASSERT_TRUE(tier.Open(o).ok());
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

TEST(SsdTierTest, SyncBackendBypassesTheQueue) {
  const ScopedEnvVar pin("ANGELPTM_SSD_IO_WORKERS", "0");
  SsdTier tier;
  SsdTier::Options o = MakeOptions("sync", 4 * kFrame);
  o.io_workers = 0;
  ASSERT_TRUE(tier.Open(o).ok());
  EXPECT_EQ(tier.io_workers(), 0u);
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  std::vector<std::byte> data(kFrame, std::byte{0x44});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());
  std::vector<std::byte> back(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*offset, back.data(), kFrame).ok());
  EXPECT_EQ(back[0], std::byte{0x44});
  EXPECT_EQ(tier.Snapshot().queued_requests, 0u);
}

TEST(SsdTierTest, CloseDrainsEveryAcceptedRequest) {
  SsdTier tier;
  SsdTier::Options o = MakeOptions("drain", 8 * kFrame);
  o.io_workers = 1;
  o.io_op_latency_us = 5000;  // Guarantee requests are pending at Close.
  ASSERT_TRUE(tier.Open(o).ok());
  std::vector<std::vector<std::byte>> bufs;
  std::vector<std::future<util::Status>> futures;
  for (int i = 0; i < 4; ++i) {
    auto offset = tier.AcquireFrame();
    ASSERT_TRUE(offset.ok());
    bufs.emplace_back(kFrame, std::byte(i));
    futures.push_back(
        tier.WriteFrameAsync(*offset, bufs.back().data(), kFrame));
  }
  tier.Close();
  // Close stops the workers only after the queue is empty, so every
  // accepted request resolved successfully rather than being dropped.
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST(SsdTierTest, WorkerCountEnvOverrideWins) {
  const ScopedEnvVar pin("ANGELPTM_SSD_IO_WORKERS", "0");
  SsdTier tier;
  SsdTier::Options o = MakeOptions("envw", 2 * kFrame);
  o.io_workers = 3;
  ASSERT_TRUE(tier.Open(o).ok());
  EXPECT_EQ(tier.io_workers(), 0u);
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
