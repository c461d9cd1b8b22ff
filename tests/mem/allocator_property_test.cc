#include <unistd.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "mem/hierarchical_memory.h"
#include "util/random.h"

namespace angelptm::core {
namespace {

/// Property-based sweep over page sizes and random alloc/move/release
/// workloads: whatever the churn, the page-based organization must (a)
/// never corrupt tensor contents, (b) conserve frames exactly, and (c)
/// keep internal waste bounded by one page per live tensor (plus shared
/// tails). This is the §4.1 zero-external-fragmentation claim as an
/// executable invariant.
class AllocatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(AllocatorPropertyTest, RandomChurnPreservesInvariants) {
  const size_t page_bytes = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  mem::HierarchicalMemoryOptions options;
  options.page_bytes = page_bytes;
  options.gpu_capacity_bytes = 64 * page_bytes;
  options.cpu_capacity_bytes = 256 * page_bytes;
  options.ssd_capacity_bytes = 256 * page_bytes;
  options.ssd_path = "/tmp/angelptm_prop_" + std::to_string(::getpid()) +
                     "_" + std::to_string(seed) + ".bin";
  mem::HierarchicalMemory memory(options);
  Allocator allocator(&memory);
  util::Rng rng(seed);

  struct Live {
    Tensor* tensor;
    float signature;
    size_t elements;
  };
  std::vector<Live> live;
  uint64_t expected_bytes = 0;

  for (int step = 0; step < 400; ++step) {
    const int action = int(rng.Uniform(10));
    if (action < 5 || live.empty()) {
      // Allocate a tensor of random size (some multi-page, some tiny).
      const size_t elements = 1 + rng.Uniform(3 * page_bytes / 4);
      const uint64_t group = rng.Uniform(4);  // Encourage tail sharing.
      auto tensor = allocator.Allocate({elements}, DType::kFp32,
                                       mem::DeviceKind::kCpu, group);
      if (!tensor.ok()) continue;  // Tier full is acceptable.
      const float signature = float(step) + 0.25f;
      ASSERT_TRUE(
          (*tensor)
              ->WriteFloats(std::vector<float>(elements, signature))
              .ok());
      live.push_back({*tensor, signature, elements});
      expected_bytes += elements * 4;
    } else if (action < 8) {
      // Release a random tensor.
      const size_t index = rng.Uniform(live.size());
      expected_bytes -= live[index].elements * 4;
      ASSERT_TRUE(allocator.Release(live[index].tensor).ok());
      live.erase(live.begin() + index);
    } else {
      // Move a random tensor to a random tier and back if SSD.
      const size_t index = rng.Uniform(live.size());
      const auto target = static_cast<mem::DeviceKind>(rng.Uniform(3));
      const util::Status moved =
          allocator.Move(live[index].tensor, target);
      if (!moved.ok()) continue;  // Target tier full is acceptable.
    }

    // Invariant: allocator accounting matches live set.
    ASSERT_EQ(allocator.allocated_bytes(), expected_bytes);
    ASSERT_EQ(allocator.num_tensors(), live.size());
  }

  // Invariant: every surviving tensor still holds its signature.
  for (const Live& entry : live) {
    const int device = entry.tensor->device_index();
    if (device == mem::kDeviceNotReady ||
        device == static_cast<int>(mem::DeviceKind::kSsd)) {
      ASSERT_TRUE(
          allocator.Move(entry.tensor, mem::DeviceKind::kCpu).ok());
    }
    std::vector<float> values;
    ASSERT_TRUE(entry.tensor->ReadFloats(&values).ok());
    for (float v : values) {
      ASSERT_EQ(v, entry.signature);
    }
  }

  // Invariant: releasing everything returns every frame.
  for (const Live& entry : live) {
    ASSERT_TRUE(allocator.Release(entry.tensor).ok());
  }
  const mem::MemorySnapshot snapshot = memory.Snapshot();
  EXPECT_EQ(snapshot.tier(mem::DeviceKind::kCpu).used_bytes, 0u);
  EXPECT_EQ(snapshot.tier(mem::DeviceKind::kGpu).used_bytes, 0u);
  EXPECT_EQ(snapshot.tier(mem::DeviceKind::kSsd).used_bytes, 0u);
  EXPECT_EQ(allocator.padding_bytes(), 0u);
  EXPECT_EQ(snapshot.fragmented_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndSeeds, AllocatorPropertyTest,
    ::testing::Combine(::testing::Values(size_t(1024), size_t(4096),
                                         size_t(16384)),
                       ::testing::Values(uint64_t(1), uint64_t(2),
                                         uint64_t(3), uint64_t(4))));

}  // namespace
}  // namespace angelptm::core
