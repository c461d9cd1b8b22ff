#include <gtest/gtest.h>

#include "train/simd/dispatch.h"
#include "train/simd/kernels_avx2.h"
#include "train/simd/scratch.h"

namespace angelptm::simd {
namespace {

TEST(SimdDispatchTest, DispatchReturnsSupportedPath) {
  const IsaPath path = Dispatch();
  EXPECT_TRUE(Supported(path))
      << "Dispatch() resolved to " << IsaPathName(path)
      << " which this host/build cannot execute";
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(Supported(IsaPath::kScalar));
}

TEST(SimdDispatchTest, Avx2SupportRequiresCompiledKernels) {
  // Supported(kAvx2) may be false on a capable CPU (stub build) but can
  // never be true without the real kernels in the binary.
  if (Supported(IsaPath::kAvx2)) {
    EXPECT_TRUE(avx2::Compiled());
  }
}

TEST(SimdDispatchTest, Avx2SupportRequiresF16c) {
  // The avx2 path's fp16 converters are F16C blocks, so the path may only
  // be supported where the CPU has F16C as well as AVX2 and FMA.
#if defined(__x86_64__) || defined(__i386__)
  if (Supported(IsaPath::kAvx2)) {
    EXPECT_TRUE(__builtin_cpu_supports("avx2"));
    EXPECT_TRUE(__builtin_cpu_supports("fma"));
    EXPECT_TRUE(__builtin_cpu_supports("f16c"));
  }
#else
  EXPECT_FALSE(Supported(IsaPath::kAvx2));
#endif
}

TEST(SimdDispatchTest, ScopedForceOverridesAndRestores) {
  const IsaPath ambient = Dispatch();
  {
    ScopedForceIsa force(IsaPath::kScalar);
    EXPECT_EQ(Dispatch(), IsaPath::kScalar);
    {
      // Nested overrides: innermost wins, each restores its predecessor.
      ScopedForceIsa inner(IsaPath::kAvx2);
      EXPECT_EQ(Dispatch(), IsaPath::kAvx2);
    }
    EXPECT_EQ(Dispatch(), IsaPath::kScalar);
  }
  EXPECT_EQ(Dispatch(), ambient);
}

TEST(SimdDispatchTest, PathNamesRoundTrip) {
  EXPECT_STREQ(IsaPathName(IsaPath::kScalar), "scalar");
  EXPECT_STREQ(IsaPathName(IsaPath::kAvx2), "avx2");
}

TEST(SimdScratchTest, GrowsAndReusesPerSlot) {
  float* p1 = ThreadScratch(ScratchSlot::kAttention, 100);
  const size_t cap1 = ThreadScratchCapacity(ScratchSlot::kAttention);
  EXPECT_GE(cap1, 100u);
  // Alignment: the packed-panel loads in the micro-kernel are aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 64, 0u);

  // Smaller request: same buffer, no shrink — the no-allocation
  // steady state the GEMM inner loop relies on.
  float* p2 = ThreadScratch(ScratchSlot::kAttention, 10);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(ThreadScratchCapacity(ScratchSlot::kAttention), cap1);

  // Larger request grows geometrically.
  ThreadScratch(ScratchSlot::kAttention, cap1 + 1);
  EXPECT_GE(ThreadScratchCapacity(ScratchSlot::kAttention), cap1 + 1);

  // Slots are independent buffers.
  float* pa = ThreadScratch(ScratchSlot::kPackA, 64);
  float* pb = ThreadScratch(ScratchSlot::kPackB, 64);
  EXPECT_NE(pa, pb);
}

}  // namespace
}  // namespace angelptm::simd
