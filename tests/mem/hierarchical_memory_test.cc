#include "mem/hierarchical_memory.h"
#include "mem/memory_report.h"

#include <unistd.h>

#include <cstring>
#include <string>

#include <gtest/gtest.h>

namespace angelptm::mem {
namespace {

constexpr size_t kPage = 64 * 1024;

HierarchicalMemoryOptions SmallOptions(bool with_ssd = true) {
  HierarchicalMemoryOptions o;
  o.page_bytes = kPage;
  o.gpu_capacity_bytes = 4 * kPage;
  o.cpu_capacity_bytes = 8 * kPage;
  o.ssd_capacity_bytes = with_ssd ? 16 * kPage : 0;
  o.ssd_path = "/tmp/angelptm_hm_test_" + std::to_string(::getpid()) + ".bin";
  return o;
}

TEST(HierarchicalMemoryTest, CreateAndDestroyPages) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kGpu);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kGpu);
  EXPECT_NE((*page)->data_ptr(), nullptr);
  EXPECT_EQ(hm.Snapshot().live_pages, 1u);
  EXPECT_EQ(hm.Snapshot().tier(DeviceKind::kGpu).used_bytes, kPage);
  ASSERT_TRUE(hm.DestroyPage(*page).ok());
  EXPECT_EQ(hm.Snapshot().live_pages, 0u);
  EXPECT_EQ(hm.Snapshot().tier(DeviceKind::kGpu).used_bytes, 0u);
}

TEST(HierarchicalMemoryTest, CreateOnSsdWithoutTierFails) {
  HierarchicalMemory hm(SmallOptions(/*with_ssd=*/false));
  EXPECT_EQ(hm.CreatePage(DeviceKind::kSsd).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(HierarchicalMemoryTest, FailedSsdOpenFailsEverySsdPageOperation) {
  HierarchicalMemoryOptions options = SmallOptions();
  options.ssd_capacity_bytes = kPage - 1;  // Not even one frame.
  HierarchicalMemory hm(options);
  const util::Status open = hm.ssd_open_status();
  ASSERT_EQ(open.code(), util::StatusCode::kInvalidArgument) << open;
  EXPECT_FALSE(hm.ssd_enabled());
  EXPECT_EQ(hm.ssd(), nullptr);
  EXPECT_EQ(hm.capacity_bytes(DeviceKind::kSsd), 0u);
  // Creation and moves in either direction report the open error, not
  // "SSD tier not configured".
  EXPECT_EQ(hm.CreatePage(DeviceKind::kSsd).status().ToString(),
            open.ToString());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(hm.MovePageSync(*page, DeviceKind::kSsd).ToString(),
            open.ToString());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  // The memory tiers work as usual.
  EXPECT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  // A memory without an SSD tier has nothing to report.
  EXPECT_TRUE(HierarchicalMemory(SmallOptions(/*with_ssd=*/false))
                  .ssd_open_status()
                  .ok());
}

TEST(HierarchicalMemoryTest, GpuExhaustionSurfacesAsResourceExhausted) {
  HierarchicalMemory hm(SmallOptions());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(hm.CreatePage(DeviceKind::kGpu).ok());
  }
  EXPECT_TRUE(hm.CreatePage(DeviceKind::kGpu).status().IsResourceExhausted());
  // CPU tier is independent.
  EXPECT_TRUE(hm.CreatePage(DeviceKind::kCpu).ok());
}

TEST(HierarchicalMemoryTest, DestroyNonEmptyPageRequiresForce) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE((*page)->Allocate(100, /*tensor_id=*/1).ok());
  EXPECT_EQ(hm.DestroyPage(*page).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(hm.DestroyPage(*page, /*force=*/true).ok());
}

TEST(HierarchicalMemoryTest, MovePreservesContentsAcrossMemoryTiers) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x5C, kPage);

  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kGpu);
  for (size_t i = 0; i < kPage; i += 997) {
    ASSERT_EQ((*page)->data_ptr()[i], std::byte{0x5C}) << "at " << i;
  }
  EXPECT_EQ(hm.Snapshot().tier(DeviceKind::kCpu).used_bytes, 0u);
  EXPECT_EQ(hm.Snapshot().tier(DeviceKind::kGpu).used_bytes, kPage);
}

TEST(HierarchicalMemoryTest, MovePreservesContentsThroughSsd) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kGpu);
  ASSERT_TRUE(page.ok());
  for (size_t i = 0; i < kPage; ++i) {
    (*page)->data_ptr()[i] = std::byte(i * 7 & 0xFF);
  }
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kSsd).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kSsd);
  EXPECT_EQ((*page)->data_ptr(), nullptr);
  EXPECT_EQ(hm.Snapshot().tier(DeviceKind::kGpu).used_bytes, 0u);

  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kCpu).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  for (size_t i = 0; i < kPage; i += 991) {
    ASSERT_EQ((*page)->data_ptr()[i], std::byte(i * 7 & 0xFF)) << "at " << i;
  }
  EXPECT_EQ(hm.Snapshot().tier(DeviceKind::kSsd).used_bytes, 0u);
}

TEST(HierarchicalMemoryTest, MoveToSameDeviceIsNoop) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kGpu);
  ASSERT_TRUE(page.ok());
  const uint64_t epoch = (*page)->residence_epoch();
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  EXPECT_EQ((*page)->residence_epoch(), epoch);
}

TEST(HierarchicalMemoryTest, MoveToFullTierFailsAndLeavesPageIntact) {
  HierarchicalMemory hm(SmallOptions());
  // Fill the GPU tier.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(hm.CreatePage(DeviceKind::kGpu).ok());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x77, kPage);
  EXPECT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).IsResourceExhausted());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ((*page)->data_ptr()[100], std::byte{0x77});
}

TEST(HierarchicalMemoryTest, MoveStatsAccumulate) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kCpu).ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  const MemorySnapshot snapshot = hm.Snapshot();
  const MoveStats& up = snapshot.link(DeviceKind::kCpu, DeviceKind::kGpu);
  const MoveStats& down = snapshot.link(DeviceKind::kGpu, DeviceKind::kCpu);
  EXPECT_EQ(up.moves, 2u);
  EXPECT_EQ(up.bytes, 2 * kPage);
  EXPECT_EQ(down.moves, 1u);
}

TEST(HierarchicalMemoryTest, FragmentationAccounting) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE((*page)->Allocate(1000, 1).ok());
  ASSERT_TRUE((*page)->Allocate(1000, 2).ok());
  ASSERT_TRUE((*page)->Release(1).ok());
  EXPECT_EQ(hm.Snapshot().fragmented_bytes, 1000u);
  ASSERT_TRUE((*page)->Release(2).ok());
  EXPECT_EQ(hm.Snapshot().fragmented_bytes, 0u);
}

TEST(HierarchicalMemoryTest, MemoryReportShowsTiersAndMoves) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  const MemorySnapshot snapshot = hm.Snapshot();
  EXPECT_EQ(snapshot.live_pages, 1u);
  EXPECT_EQ(snapshot.tier(DeviceKind::kGpu).pages, 1u);
  EXPECT_EQ(snapshot.tier(DeviceKind::kCpu).pages, 0u);
  EXPECT_EQ(snapshot.link(DeviceKind::kCpu, DeviceKind::kGpu).moves, 1u);
  EXPECT_EQ(snapshot.tier(DeviceKind::kGpu).used_bytes, kPage);
  const std::string report = FormatMemoryReport(snapshot);
  EXPECT_NE(report.find("gpu:"), std::string::npos);
  EXPECT_NE(report.find("cpu:"), std::string::npos);
  EXPECT_NE(report.find("moves cpu->gpu: 1"), std::string::npos);
  EXPECT_NE(report.find("1 live pages"), std::string::npos);
}

TEST(HierarchicalMemoryTest, SsdRoundTripPreservesEveryByte) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  for (size_t i = 0; i < kPage; ++i) {
    (*page)->data_ptr()[i] = std::byte((i * 131 + 17) & 0xFF);
  }
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kSsd).ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kCpu).ok());
  for (size_t i = 0; i < kPage; ++i) {
    ASSERT_EQ((*page)->data_ptr()[i], std::byte((i * 131 + 17) & 0xFF))
        << "at " << i;
  }
}

}  // namespace
}  // namespace angelptm::mem
