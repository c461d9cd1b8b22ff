#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "core/tensor.h"
#include "mem/hierarchical_memory.h"

namespace angelptm::core {
namespace {

constexpr size_t kPage = 4096;

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest() : memory_(MakeOptions()), allocator_(&memory_) {}

  static mem::HierarchicalMemoryOptions MakeOptions() {
    mem::HierarchicalMemoryOptions o;
    o.page_bytes = kPage;
    o.gpu_capacity_bytes = 16 * kPage;
    o.cpu_capacity_bytes = 64 * kPage;
    o.ssd_capacity_bytes = 64 * kPage;
    o.ssd_path =
        "/tmp/angelptm_alloc_test_" + std::to_string(::getpid()) + ".bin";
    return o;
  }

  mem::HierarchicalMemory memory_;
  Allocator allocator_;
};

TEST_F(AllocatorTest, SmallTensorGetsSinglePage) {
  auto tensor = allocator_.Allocate({10, 10}, DType::kFp32,
                                    mem::DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ((*tensor)->SizeBytes(), 400u);
  EXPECT_EQ((*tensor)->pages().size(), 1u);
  EXPECT_EQ((*tensor)->device_index(),
            static_cast<int>(mem::DeviceKind::kCpu));
  EXPECT_EQ(allocator_.num_tensors(), 1u);
}

TEST_F(AllocatorTest, MultiPageTensorSpansCeilPages) {
  // 2.5 pages worth of floats.
  const size_t elems = (2 * kPage + kPage / 2) / 4;
  auto tensor =
      allocator_.Allocate({elems}, DType::kFp32, mem::DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ((*tensor)->pages().size(), 3u);
}

TEST_F(AllocatorTest, DataRoundTripThroughPages) {
  const size_t elems = 3 * kPage / 4;  // 3 pages of fp32.
  auto tensor =
      allocator_.Allocate({elems}, DType::kFp32, mem::DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  std::vector<float> values(elems);
  for (size_t i = 0; i < elems; ++i) values[i] = float(i) * 0.5f;
  ASSERT_TRUE((*tensor)->WriteFloats(values).ok());
  std::vector<float> back;
  ASSERT_TRUE((*tensor)->ReadFloats(&back).ok());
  EXPECT_EQ(back, values);
}

TEST_F(AllocatorTest, Fp16TensorsConvertOnReadWrite) {
  auto tensor =
      allocator_.Allocate({8}, DType::kFp16, mem::DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ((*tensor)->SizeBytes(), 16u);
  ASSERT_TRUE(
      (*tensor)->WriteFloats({1.0f, -2.5f, 0.0f, 4.0f, 8.0f, 0.5f, 3.0f, -1.0f})
          .ok());
  std::vector<float> back;
  ASSERT_TRUE((*tensor)->ReadFloats(&back).ok());
  EXPECT_EQ(back[1], -2.5f);  // Exactly representable in fp16.
  EXPECT_EQ(back[4], 8.0f);
}

TEST_F(AllocatorTest, GroupedTensorsShareTailPage) {
  // Two sub-page tensors in the same group must pack into ONE page.
  auto a = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu,
                               /*group=*/1);
  auto b = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu,
                               /*group=*/1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ((*a)->pages().size(), 1u);
  ASSERT_EQ((*b)->pages().size(), 1u);
  EXPECT_EQ((*a)->pages()[0], (*b)->pages()[0]);
  EXPECT_EQ(memory_.Snapshot().live_pages, 1u);
}

TEST_F(AllocatorTest, ThirdGroupTensorOpensNewPage) {
  // The two-tensors-per-page cap (§4.1).
  auto a = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  auto b = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  auto c = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  ASSERT_TRUE(c.ok());
  EXPECT_NE((*c)->pages()[0], (*a)->pages()[0]);
  EXPECT_EQ(memory_.Snapshot().live_pages, 2u);
  (void)b;
}

TEST_F(AllocatorTest, DifferentGroupsDoNotShare) {
  auto a = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  auto b = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->pages()[0], (*b)->pages()[0]);
}

TEST_F(AllocatorTest, UngroupedTensorsGetExclusivePages) {
  auto a = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu);
  auto b = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->pages()[0], (*b)->pages()[0]);
}

TEST_F(AllocatorTest, SharedPageDataDoesNotOverlap) {
  auto a = allocator_.Allocate({64}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  auto b = allocator_.Allocate({64}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  std::vector<float> ones(64, 1.0f);
  std::vector<float> twos(64, 2.0f);
  ASSERT_TRUE((*a)->WriteFloats(ones).ok());
  ASSERT_TRUE((*b)->WriteFloats(twos).ok());
  std::vector<float> back;
  ASSERT_TRUE((*a)->ReadFloats(&back).ok());
  EXPECT_EQ(back, ones);
  ASSERT_TRUE((*b)->ReadFloats(&back).ok());
  EXPECT_EQ(back, twos);
}

TEST_F(AllocatorTest, ReleaseReturnsFramesToTier) {
  const auto cpu_used = [this] {
    return memory_.Snapshot().tier(mem::DeviceKind::kCpu).used_bytes;
  };
  const uint64_t before = cpu_used();
  auto tensor = allocator_.Allocate({kPage}, DType::kFp32,
                                    mem::DeviceKind::kCpu);  // 4 pages.
  ASSERT_TRUE(tensor.ok());
  EXPECT_GT(cpu_used(), before);
  ASSERT_TRUE(allocator_.Release(*tensor).ok());
  EXPECT_EQ(cpu_used(), before);
  EXPECT_EQ(allocator_.num_tensors(), 0u);
}

TEST_F(AllocatorTest, SharedPageSurvivesPartnerRelease) {
  auto a = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  auto b = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  std::vector<float> twos(100, 2.0f);
  ASSERT_TRUE((*b)->WriteFloats(twos).ok());
  ASSERT_TRUE(allocator_.Release(*a).ok());
  EXPECT_EQ(memory_.Snapshot().live_pages, 1u);
  std::vector<float> back;
  ASSERT_TRUE((*b)->ReadFloats(&back).ok());
  EXPECT_EQ(back, twos);
  ASSERT_TRUE(allocator_.Release(*b).ok());
  EXPECT_EQ(memory_.Snapshot().live_pages, 0u);
}

TEST_F(AllocatorTest, ReleaseUnknownTensorFails) {
  Tensor stray(999, {4}, DType::kFp32);
  EXPECT_TRUE(allocator_.Release(&stray).IsNotFound());
  EXPECT_TRUE(allocator_.Release(nullptr).IsInvalidArgument());
}

TEST_F(AllocatorTest, MoveTensorAcrossTiersPreservesData) {
  const size_t elems = kPage / 2;  // 2 pages fp32.
  auto tensor =
      allocator_.Allocate({elems}, DType::kFp32, mem::DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  std::vector<float> values(elems);
  for (size_t i = 0; i < elems; ++i) values[i] = float(i);
  ASSERT_TRUE((*tensor)->WriteFloats(values).ok());

  ASSERT_TRUE(allocator_.Move(*tensor, mem::DeviceKind::kGpu).ok());
  EXPECT_EQ((*tensor)->device_index(),
            static_cast<int>(mem::DeviceKind::kGpu));
  std::vector<float> back;
  ASSERT_TRUE((*tensor)->ReadFloats(&back).ok());
  EXPECT_EQ(back, values);

  // Through SSD and back.
  ASSERT_TRUE(allocator_.Move(*tensor, mem::DeviceKind::kSsd).ok());
  EXPECT_EQ((*tensor)->device_index(),
            static_cast<int>(mem::DeviceKind::kSsd));
  ASSERT_TRUE(allocator_.Move(*tensor, mem::DeviceKind::kCpu).ok());
  ASSERT_TRUE((*tensor)->ReadFloats(&back).ok());
  EXPECT_EQ(back, values);
}

TEST_F(AllocatorTest, SharedPageMoveCarriesPartner) {
  auto a = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  auto b = allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu, 1);
  ASSERT_TRUE(allocator_.Move(*a, mem::DeviceKind::kGpu).ok());
  // Both tensors rode the same page.
  EXPECT_EQ((*b)->device_index(), static_cast<int>(mem::DeviceKind::kGpu));
}

TEST_F(AllocatorTest, DeviceIndexMinusOneWhenSplit) {
  // Footnote 2: a tensor split across tiers is "not ready".
  const size_t elems = kPage / 2;  // 2 pages.
  auto tensor =
      allocator_.Allocate({elems}, DType::kFp32, mem::DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  ASSERT_TRUE(
      memory_.MovePageSync((*tensor)->pages()[0], mem::DeviceKind::kGpu).ok());
  EXPECT_EQ((*tensor)->device_index(), mem::kDeviceNotReady);
}

TEST_F(AllocatorTest, AllocationFailureLeaksNothing) {
  // GPU tier has 16 frames; ask for 20 pages worth.
  const uint64_t used_before =
      memory_.Snapshot().tier(mem::DeviceKind::kGpu).used_bytes;
  auto huge = allocator_.Allocate({20 * kPage / 4}, DType::kFp32,
                                  mem::DeviceKind::kGpu);
  EXPECT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsResourceExhausted());
  EXPECT_EQ(memory_.Snapshot().tier(mem::DeviceKind::kGpu).used_bytes,
            used_before);
  EXPECT_EQ(allocator_.num_tensors(), 0u);
}

TEST_F(AllocatorTest, PaddingAccounting) {
  EXPECT_EQ(allocator_.padding_bytes(), 0u);
  auto tensor =
      allocator_.Allocate({100}, DType::kFp32, mem::DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(allocator_.allocated_bytes(), 400u);
  EXPECT_EQ(allocator_.padding_bytes(), kPage - 400u);
  ASSERT_TRUE(allocator_.Release(*tensor).ok());
  EXPECT_EQ(allocator_.padding_bytes(), 0u);
}

TEST_F(AllocatorTest, ZeroElementTensorRejected) {
  EXPECT_TRUE(allocator_.Allocate({0, 5}, DType::kFp32, mem::DeviceKind::kCpu)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace angelptm::core
