#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "core/dtype.h"
#include "core/tensor.h"
#include "mem/hierarchical_memory.h"
#include "train/simd/dispatch.h"
#include "util/half.h"

namespace angelptm::core {
namespace {

/// The bulk converters must equal the scalar util:: functions bit for bit on
/// every input, on both ISA paths: fp16 tensors, the updater's p'16 and
/// the engine's staging all convert through them, and resume and the
/// direct-vs-paged trainer tests compare bits.
class HalfConvertGoldenTest : public ::testing::TestWithParam<simd::IsaPath> {
 protected:
  void SetUp() override {
    if (!simd::Supported(GetParam())) {
      GTEST_SKIP() << simd::IsaPathName(GetParam())
                   << " path not supported on this host/build";
    }
    force_ = std::make_unique<simd::ScopedForceIsa>(GetParam());
  }

  std::unique_ptr<simd::ScopedForceIsa> force_;
};

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Converts `values` both ways in bulk and checks every element against the
/// scalar functions: float -> half on `values`, half -> float on the scalar
/// halves.
void ExpectFloatsMatchScalar(const std::vector<float>& values) {
  std::vector<uint16_t> halves(values.size());
  FloatsToHalves(values.data(), halves.data(), values.size());
  std::vector<uint16_t> expected(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    expected[i] = util::FloatToHalfBits(values[i]);
    ASSERT_EQ(halves[i], expected[i])
        << "float bits 0x" << std::hex << Bits(values[i]);
  }
  std::vector<float> back(values.size());
  HalvesToFloats(expected.data(), back.data(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(Bits(back[i]), Bits(util::HalfBitsToFloat(expected[i])))
        << "half bits 0x" << std::hex << expected[i];
  }
}

TEST_P(HalfConvertGoldenTest, EveryHalfPattern) {
  // Includes the 1,022 signalling NaNs, which F16C would quiet.
  std::vector<uint16_t> halves(1 << 16);
  for (size_t h = 0; h < halves.size(); ++h) halves[h] = uint16_t(h);
  std::vector<float> floats(halves.size());
  HalvesToFloats(halves.data(), floats.data(), halves.size());
  for (size_t h = 0; h < halves.size(); ++h) {
    ASSERT_EQ(Bits(floats[h]), Bits(util::HalfBitsToFloat(uint16_t(h))))
        << "half bits 0x" << std::hex << h;
  }
  // And back: every float a half widens to, NaN payloads included.
  ExpectFloatsMatchScalar(floats);
}

TEST_P(HalfConvertGoldenTest, FloatEdgeCases) {
  std::vector<float> values = {
      0.0f, -0.0f, 65504.0f, -65504.0f, 65520.0f, -65520.0f,
      std::nextafter(65520.0f, 0.0f), std::nextafter(65504.0f, 1e9f),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::max(), std::numeric_limits<float>::min(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      // Half subnormal edges: the smallest subnormal, the tie below it
      // (rounds to even, zero), just above that tie, the largest subnormal
      // and the smallest normal.
      std::ldexp(1.0f, -24), std::ldexp(1.0f, -25),
      std::nextafter(std::ldexp(1.0f, -25), 1.0f),
      std::ldexp(1023.0f, -24), std::ldexp(1.0f, -14),
      std::nextafter(std::ldexp(1.0f, -14), 0.0f)};
  // NaNs with payloads: quiet and signalling, both signs, payload bits
  // above and below the 10 a half keeps.
  for (uint32_t nan : {0x7FC00000u, 0x7FC00001u, 0x7FFFE000u, 0x7FBFFFFFu,
                       0x7F800001u, 0x7F802000u, 0xFFC12345u, 0xFF800001u,
                       0xFFFFFFFFu, 0x7FA00000u}) {
    values.push_back(FromBits(nan));
  }
  // Round-to-nearest-even at every exponent and sign. The rounding
  // position moves with the exponent (bit 12 for normal halves, higher in
  // the subnormal range), so for every mantissa bit b: the tie 1<<b, the
  // tie with a sticky bit, the pattern just below it, and ties with an odd
  // kept mantissa (3<<b), with and without a sticky bit.
  std::vector<uint32_t> mantissas = {0x000000u, 0x7FFFFFu};
  for (uint32_t b = 0; b < 23; ++b) {
    for (uint32_t m : {1u << b, (1u << b) + 1, (1u << b) - 1, 3u << b,
                       (3u << b) + 1}) {
      mantissas.push_back(m & 0x7FFFFFu);
    }
  }
  for (uint32_t sign : {0u, 0x80000000u}) {
    for (uint32_t exponent = 0; exponent < 255; ++exponent) {
      for (uint32_t mantissa : mantissas) {
        values.push_back(FromBits(sign | (exponent << 23) | mantissa));
      }
    }
  }
  ExpectFloatsMatchScalar(values);
}

TEST_P(HalfConvertGoldenTest, StridedSweepOfAllFloatPatterns) {
  // A prime stride visits about a million patterns spread over all 2^32,
  // every exponent and sign with varied low bits.
  constexpr uint64_t kStride = 4093;
  std::vector<float> values;
  values.reserve((uint64_t{1} << 32) / kStride + 1);
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += kStride) {
    values.push_back(FromBits(uint32_t(bits)));
  }
  ExpectFloatsMatchScalar(values);
}

TEST_P(HalfConvertGoldenTest, ShortLengthsAtUnalignedStarts) {
  // Vector bodies, tails and starts off any vector alignment; the elements
  // around the converted range must stay untouched.
  constexpr uint16_t kCanaryHalf = 0xBEEF;
  const float canary_float = FromBits(0xDEADBEEFu);
  std::vector<float> source(64);
  for (size_t i = 0; i < source.size(); ++i) {
    // Mixes NaNs whose payloads reach the bits F16C keeps into the run, so
    // every lane position sees one.
    source[i] = i % 7 == 3 ? FromBits(0x7F810001u + (uint32_t(i) << 16))
                           : 0.37f * float(i) - 9.0f;
  }
  for (size_t n = 0; n <= 33; ++n) {
    for (size_t start = 0; start < 5; ++start) {
      std::vector<uint16_t> halves(start + n + 1, kCanaryHalf);
      FloatsToHalves(source.data() + start, halves.data() + start, n);
      for (size_t i = 0; i < halves.size(); ++i) {
        const bool inside = i >= start && i < start + n;
        ASSERT_EQ(halves[i],
                  inside ? util::FloatToHalfBits(source[i]) : kCanaryHalf)
            << "n " << n << ", start " << start << ", i " << i;
      }
      std::vector<float> floats(start + n + 1, canary_float);
      HalvesToFloats(halves.data() + start, floats.data() + start, n);
      for (size_t i = 0; i < floats.size(); ++i) {
        const bool inside = i >= start && i < start + n;
        ASSERT_EQ(Bits(floats[i]),
                  inside ? Bits(util::HalfBitsToFloat(halves[i]))
                         : Bits(canary_float))
            << "n " << n << ", start " << start << ", i " << i;
      }
    }
  }
}

TEST_P(HalfConvertGoldenTest, MultiPageTensorWithSharedTailPage) {
  constexpr size_t kPage = 4096;
  mem::HierarchicalMemoryOptions options;
  options.page_bytes = kPage;
  options.gpu_capacity_bytes = 4 * kPage;
  options.cpu_capacity_bytes = 16 * kPage;
  mem::HierarchicalMemory memory(options);
  Allocator allocator(&memory);
  constexpr uint64_t kGroup = 7;
  // 2.5 pages of fp16, then a small tensor of the same group that shares
  // the tail page, so the big tensor's last span ends mid-page.
  const size_t big_count = (2 * kPage + kPage / 2) / 2 + 3;
  auto big = allocator.Allocate({big_count}, DType::kFp16,
                                mem::DeviceKind::kCpu, kGroup);
  auto small = allocator.Allocate({101}, DType::kFp16, mem::DeviceKind::kCpu,
                                  kGroup);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  ASSERT_EQ((*big)->pages().size(), 3u);
  ASSERT_EQ((*small)->pages().front(), (*big)->pages().back());

  std::vector<float> small_values(101);
  for (size_t i = 0; i < small_values.size(); ++i) {
    small_values[i] = -0.5f * float(i);
  }
  ASSERT_TRUE((*small)->WriteFloats(small_values).ok());
  std::vector<float> values(big_count);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 11 == 5
                    ? FromBits(0xFF800001u | ((uint32_t(i) << 13) & 0x7FFFFFu))
                    : std::ldexp(1.0f + float(i % 97) / 4096.0f,
                                 int(i % 41) - 28);
  }
  ASSERT_TRUE((*big)->WriteFloats(values).ok());

  // The pages hold exactly the scalar bits...
  std::vector<uint16_t> raw(big_count);
  ASSERT_TRUE((*big)
                  ->CopyOut(reinterpret_cast<std::byte*>(raw.data()),
                            raw.size() * 2)
                  .ok());
  for (size_t i = 0; i < raw.size(); ++i) {
    ASSERT_EQ(raw[i], util::FloatToHalfBits(values[i])) << "element " << i;
  }
  // ...they read back as the scalar widening...
  std::vector<float> back;
  ASSERT_TRUE((*big)->ReadFloats(&back).ok());
  ASSERT_EQ(back.size(), big_count);
  for (size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(Bits(back[i]), Bits(util::HalfBitsToFloat(raw[i])))
        << "element " << i;
  }
  // ...and the tensor sharing the tail page is untouched.
  std::vector<float> small_back;
  ASSERT_TRUE((*small)->ReadFloats(&small_back).ok());
  EXPECT_EQ(small_back, small_values);
  ASSERT_TRUE(allocator.Release(*big).ok());
  ASSERT_TRUE(allocator.Release(*small).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllIsaPaths, HalfConvertGoldenTest,
    ::testing::Values(simd::IsaPath::kScalar, simd::IsaPath::kAvx2),
    [](const ::testing::TestParamInfo<simd::IsaPath>& info) {
      return simd::IsaPathName(info.param);
    });

}  // namespace
}  // namespace angelptm::core
