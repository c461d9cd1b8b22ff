#include <unistd.h>

#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "mem/ssd_tier.h"
#include "util/fault_injector.h"

namespace angelptm::mem {
namespace {

constexpr size_t kFrame = 4096;

/// Fault-injected error-path coverage for the memory hierarchy: every test
/// arms a failpoint, drives the normal API, and asserts the error either
/// gets absorbed (retried) or propagates losslessly to the caller.
class MemFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override { util::FaultInjector::Instance().Reset(); }

  static util::FaultInjector& fi() { return util::FaultInjector::Instance(); }

  static void ArmPermanent(const char* site) {
    util::FaultRule rule;
    rule.permanent = true;
    fi().Arm(site, rule);
  }

  static void ArmNth(const char* site, int64_t nth) {
    util::FaultRule rule;
    rule.nth_call = nth;
    fi().Arm(site, rule);
  }

  static std::string TempPath(const char* tag) {
    return std::string("/tmp/angelptm_fault_test_") + tag + "_" +
           std::to_string(::getpid()) + ".bin";
  }

  static SsdTier::Options TierOptions(const char* tag, uint64_t frames) {
    SsdTier::Options o;
    o.path = TempPath(tag);
    o.capacity_bytes = frames * kFrame;
    o.frame_bytes = kFrame;
    return o;
  }

  static HierarchicalMemoryOptions MemoryOptions(const char* tag) {
    HierarchicalMemoryOptions o;
    o.page_bytes = kFrame;
    o.gpu_capacity_bytes = 8 * kFrame;
    o.cpu_capacity_bytes = 16 * kFrame;
    o.ssd_capacity_bytes = 8 * kFrame;
    o.ssd_path = TempPath(tag);
    return o;
  }
};

TEST_F(MemFaultInjectionTest, TransientWriteFaultAbsorbedByRetry) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("wtrans", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  ArmNth("ssd.pwrite", 1);  // First attempt fails; the retry succeeds.

  std::vector<std::byte> data(kFrame, std::byte{0x5A});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());
  EXPECT_EQ(tier.Snapshot().io_retries, 1u);
  EXPECT_EQ(fi().fires("ssd.pwrite"), 1u);
  EXPECT_EQ(fi().calls("ssd.pwrite"), 2u);  // Failed attempt + retry.

  // The data written by the successful retry is intact.
  std::vector<std::byte> back(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*offset, back.data(), kFrame).ok());
  EXPECT_EQ(back[kFrame - 1], std::byte{0x5A});
  // Failed attempts don't count toward bytes written.
  EXPECT_EQ(tier.Snapshot().bytes_written, kFrame);
}

TEST_F(MemFaultInjectionTest, TransientReadFaultAbsorbedByRetry) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("rtrans", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  std::vector<std::byte> data(kFrame, std::byte{0x77});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());

  ArmNth("ssd.pread", 1);
  std::vector<std::byte> back(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*offset, back.data(), kFrame).ok());
  EXPECT_EQ(back[0], std::byte{0x77});
  EXPECT_EQ(tier.Snapshot().io_retries, 1u);
}

TEST_F(MemFaultInjectionTest, PermanentWriteFaultExhaustsRetries) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("wperm", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  ArmPermanent("ssd.pwrite");

  std::vector<std::byte> data(kFrame, std::byte{1});
  EXPECT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).IsIoError());
  EXPECT_EQ(fi().calls("ssd.pwrite"), 3u);       // Every attempt was made...
  const SsdTier::Stats stats = tier.Snapshot();
  EXPECT_EQ(stats.io_retries, 2u);               // ...after 2 backoffs.
  EXPECT_EQ(stats.bytes_written, 0u);
}

TEST_F(MemFaultInjectionTest, NonIoErrorsAreNotRetried) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("nonio", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  util::FaultRule rule;
  rule.permanent = true;
  rule.code = util::StatusCode::kCancelled;
  fi().Arm("ssd.pwrite", rule);

  std::vector<std::byte> data(kFrame, std::byte{1});
  EXPECT_EQ(tier.WriteFrame(*offset, data.data(), kFrame).code(),
            util::StatusCode::kCancelled);
  EXPECT_EQ(fi().calls("ssd.pwrite"), 1u);  // No retry for non-IoError.
}

TEST_F(MemFaultInjectionTest, FailedStageOutReleasesSsdFrame) {
  HierarchicalMemory memory(MemoryOptions("stageout"));
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x42, kFrame);
  const size_t free_before = memory.ssd()->free_frames();

  ArmPermanent("ssd.pwrite");
  EXPECT_TRUE(memory.MovePageSync(*page, DeviceKind::kSsd).IsIoError());
  // The page stays intact on its source tier and the acquired SSD frame
  // was returned to the free list — no leak on the error path.
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ((*page)->data_ptr()[0], std::byte{0x42});
  EXPECT_EQ(memory.ssd()->free_frames(), free_before);

  // The tier recovers once the fault clears.
  fi().Reset();
  EXPECT_TRUE(memory.MovePageSync(*page, DeviceKind::kSsd).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kSsd);
}

TEST_F(MemFaultInjectionTest, FailedStageInKeepsPageOnSsd) {
  HierarchicalMemory memory(MemoryOptions("stagein"));
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x24, kFrame);
  ASSERT_TRUE(memory.MovePageSync(*page, DeviceKind::kSsd).ok());
  const uint64_t cpu_used_before = memory.used_bytes(DeviceKind::kCpu);

  ArmPermanent("ssd.pread");
  EXPECT_TRUE(memory.MovePageSync(*page, DeviceKind::kCpu).IsIoError());
  EXPECT_EQ((*page)->device(), DeviceKind::kSsd);
  // The CPU frame acquired for the failed stage-in was released.
  EXPECT_EQ(memory.used_bytes(DeviceKind::kCpu), cpu_used_before);

  fi().Reset();
  ASSERT_TRUE(memory.MovePageSync(*page, DeviceKind::kCpu).ok());
  EXPECT_EQ((*page)->data_ptr()[0], std::byte{0x24});
}

TEST_F(MemFaultInjectionTest, MovePageFailpointFiresBeforeAnyWork) {
  HierarchicalMemory memory(MemoryOptions("movefp"));
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  util::FaultRule rule;
  rule.permanent = true;
  rule.code = util::StatusCode::kInternal;
  fi().Arm("hmem.move_page", rule);
  EXPECT_EQ(memory.MovePageSync(*page, DeviceKind::kGpu).code(),
            util::StatusCode::kInternal);
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ(memory.move_stats(DeviceKind::kCpu, DeviceKind::kGpu).moves, 0u);
}

TEST_F(MemFaultInjectionTest, CopyEngineMoveFailureSurfacesThroughFuture) {
  HierarchicalMemory memory(MemoryOptions("cemove"));
  CopyEngine engine(&memory, 2);
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ArmPermanent("copy_engine.move");

  auto future = engine.MoveAsync(*page, DeviceKind::kGpu);
  const util::Status status = future.get();
  EXPECT_TRUE(status.IsIoError());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ(engine.Snapshot().moves_failed, 1u);
  EXPECT_EQ(engine.Snapshot().moves_completed, 0u);

  fi().Reset();
  EXPECT_TRUE(engine.MoveAsync(*page, DeviceKind::kGpu).get().ok());
  EXPECT_EQ(engine.Snapshot().moves_completed, 1u);
}

TEST_F(MemFaultInjectionTest, PermanentReadFaultExhaustsRetries) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("rperm", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  std::vector<std::byte> data(kFrame, std::byte{1});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());

  ArmPermanent("ssd.pread");
  EXPECT_TRUE(tier.ReadFrame(*offset, data.data(), kFrame).IsIoError());
  EXPECT_EQ(fi().calls("ssd.pread"), 3u);  // All attempts, then propagate.
  EXPECT_EQ(tier.Snapshot().io_retries, 2u);
  EXPECT_EQ(tier.Snapshot().bytes_read, 0u);
}

TEST_F(MemFaultInjectionTest, PageMutexMapIsGarbageCollected) {
  HierarchicalMemory memory(MemoryOptions("mutexgc"));
  CopyEngine engine(&memory, 2);
  // Move 200 distinct pages through the engine, one at a time. Without GC
  // the per-page mutex map would hold all 200 entries forever.
  for (int i = 0; i < 200; ++i) {
    auto page = memory.CreatePage(DeviceKind::kCpu);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(engine.MoveAsync(*page, DeviceKind::kGpu).get().ok());
    ASSERT_TRUE(engine.MoveAsync(*page, DeviceKind::kCpu).get().ok());
    ASSERT_TRUE(memory.DestroyPage(*page, /*force=*/true).ok());
  }
  engine.Drain();
  const CopyEngine::Stats stats = engine.Snapshot();
  EXPECT_EQ(stats.moves_completed, 400u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Entries with no in-flight move were swept; the map stays bounded well
  // below the 200 distinct page ids it has seen.
  EXPECT_LT(stats.tracked_page_mutexes, 100u);
}

}  // namespace
}  // namespace angelptm::mem
