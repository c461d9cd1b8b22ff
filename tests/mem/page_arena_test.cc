#include "mem/page_arena.h"

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace angelptm::mem {
namespace {

constexpr size_t kFrame = 4096;

TEST(PageArenaTest, CapacityDividedIntoFrames) {
  PageArena arena(DeviceKind::kGpu, 10 * kFrame + 100, kFrame);
  EXPECT_EQ(arena.total_frames(), 10u);  // Remainder is dropped.
  EXPECT_EQ(arena.free_frames(), 10u);
  EXPECT_EQ(arena.capacity_bytes(), 10 * kFrame);
  EXPECT_EQ(arena.device(), DeviceKind::kGpu);
}

TEST(PageArenaTest, FramesAreDistinctAndWritable) {
  PageArena arena(DeviceKind::kCpu, 8 * kFrame, kFrame);
  std::set<std::byte*> frames;
  for (int i = 0; i < 8; ++i) {
    auto frame = arena.AcquireFrame();
    ASSERT_TRUE(frame.ok());
    std::memset(*frame, i, kFrame);  // Must be real memory.
    frames.insert(*frame);
  }
  EXPECT_EQ(frames.size(), 8u);
  EXPECT_EQ(arena.free_frames(), 0u);
}

TEST(PageArenaTest, ExhaustionReturnsResourceExhausted) {
  PageArena arena(DeviceKind::kGpu, 2 * kFrame, kFrame);
  ASSERT_TRUE(arena.AcquireFrame().ok());
  ASSERT_TRUE(arena.AcquireFrame().ok());
  EXPECT_TRUE(arena.AcquireFrame().status().IsResourceExhausted());
}

TEST(PageArenaTest, ReleaseMakesFrameReusable) {
  PageArena arena(DeviceKind::kGpu, kFrame, kFrame);
  auto frame = arena.AcquireFrame();
  ASSERT_TRUE(frame.ok());
  arena.ReleaseFrame(*frame);
  EXPECT_EQ(arena.free_frames(), 1u);
  auto again = arena.AcquireFrame();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *frame);
}

TEST(PageArenaTest, NoExternalFragmentationUnderChurn) {
  // The core claim of page-based organization: any alloc/free pattern of
  // fixed-size frames leaves the arena able to satisfy all capacity.
  PageArena arena(DeviceKind::kGpu, 16 * kFrame, kFrame);
  std::vector<std::byte*> held;
  for (int round = 0; round < 50; ++round) {
    // Acquire a prime-ish number, release every other one.
    while (held.size() < 13) {
      auto f = arena.AcquireFrame();
      ASSERT_TRUE(f.ok());
      held.push_back(*f);
    }
    for (size_t i = 0; i < held.size(); i += 2) {
      arena.ReleaseFrame(held[i]);
    }
    std::vector<std::byte*> kept;
    for (size_t i = 1; i < held.size(); i += 2) kept.push_back(held[i]);
    held = kept;
  }
  for (auto* f : held) arena.ReleaseFrame(f);
  EXPECT_EQ(arena.free_frames(), 16u);
  // Full capacity still allocatable in one run.
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(arena.AcquireFrame().ok());
}

TEST(PageArenaTest, PeakUsageTracked) {
  PageArena arena(DeviceKind::kGpu, 4 * kFrame, kFrame);
  auto a = arena.AcquireFrame();
  auto b = arena.AcquireFrame();
  auto c = arena.AcquireFrame();
  arena.ReleaseFrame(*b);
  arena.ReleaseFrame(*c);
  EXPECT_EQ(arena.peak_used_frames(), 3u);
  EXPECT_EQ(arena.used_frames(), 1u);
  arena.ReleaseFrame(*a);
}

TEST(PageArenaTest, OwnsIdentifiesArenaPointers) {
  PageArena arena(DeviceKind::kGpu, 2 * kFrame, kFrame);
  auto frame = arena.AcquireFrame();
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(arena.Owns(*frame));
  std::byte local;
  EXPECT_FALSE(arena.Owns(&local));
}

TEST(PageArenaTest, ConcurrentAcquireRelease) {
  PageArena arena(DeviceKind::kCpu, 64 * kFrame, kFrame);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto f = arena.AcquireFrame();
        if (f.ok()) {
          (*f)[0] = std::byte{1};
          arena.ReleaseFrame(*f);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arena.free_frames(), 64u);
}

}  // namespace
}  // namespace angelptm::mem
