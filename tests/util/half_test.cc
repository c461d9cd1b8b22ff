#include "util/half.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace angelptm::util {
namespace {

/// `f` rounded to binary16 and back.
float HalfRound(float f) { return HalfBitsToFloat(FloatToHalfBits(f)); }

/// `f` rounded to bfloat16 and back.
float Bf16Round(float f) {
  return BFloat16BitsToFloat(FloatToBFloat16Bits(f));
}

TEST(HalfTest, ExactSmallValuesRoundTrip) {
  for (float f : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(HalfRound(f), f) << "value " << f;
  }
}

TEST(HalfTest, SignedZero) {
  EXPECT_EQ(FloatToHalfBits(0.0f), 0x0000);
  EXPECT_EQ(FloatToHalfBits(-0.0f), 0x8000);
  EXPECT_EQ(HalfRound(-0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(HalfRound(-0.0f)));
}

TEST(HalfTest, OverflowGoesToInfinity) {
  EXPECT_TRUE(std::isinf(HalfRound(1e6f)));
  EXPECT_TRUE(std::isinf(HalfRound(-1e6f)));
  EXPECT_GT(HalfRound(1e6f), 0.0f);
  EXPECT_LT(HalfRound(-1e6f), 0.0f);
  // 65504 is the max finite half; 65520 rounds up to inf.
  EXPECT_TRUE(std::isinf(HalfRound(65520.0f)));
}

TEST(HalfTest, NanStaysNan) {
  EXPECT_TRUE(std::isnan(HalfRound(std::nanf(""))));
}

TEST(HalfTest, InfinityRoundTrips) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(HalfRound(inf), inf);
  EXPECT_EQ(HalfRound(-inf), -inf);
}

TEST(HalfTest, SubnormalsRepresentable) {
  // Smallest positive subnormal half is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(HalfRound(tiny), tiny);
  // Halfway below underflows to zero under round-to-nearest-even.
  EXPECT_EQ(HalfRound(std::ldexp(1.0f, -26)), 0.0f);
}

TEST(HalfTest, RoundToNearestEven) {
  // 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties to even -> 1.0.
  EXPECT_EQ(HalfRound(1.0f + std::ldexp(1.0f, -11)), 1.0f);
  // 1 + 3*2^-11 ties between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
  EXPECT_EQ(HalfRound(1.0f + 3 * std::ldexp(1.0f, -11)),
            1.0f + std::ldexp(1.0f, -9));
  // Slightly above the tie rounds up.
  EXPECT_EQ(HalfRound(1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -13)),
            1.0f + std::ldexp(1.0f, -10));
}

TEST(HalfTest, RelativeErrorBoundedForNormals) {
  // Max relative rounding error for half normals is 2^-11.
  for (float f = 0.001f; f < 60000.0f; f *= 1.37f) {
    const float back = HalfRound(f);
    EXPECT_LE(std::abs(back - f) / f, std::ldexp(1.0f, -11)) << "value " << f;
  }
}

TEST(HalfTest, AllBitPatternsRoundTripThroughFloat) {
  // Every finite half value must convert to float and back to the same bits.
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = HalfBitsToFloat(h);
    if (std::isnan(f)) continue;  // NaN payloads need not be preserved.
    EXPECT_EQ(FloatToHalfBits(f), h) << "bits 0x" << std::hex << bits;
  }
}

TEST(BFloat16Test, ExactValuesRoundTrip) {
  for (float f :
       {0.0f, 1.0f, -2.0f, 0.5f, 128.0f, std::ldexp(1.5f, 126)}) {
    EXPECT_EQ(Bf16Round(f), f) << "value " << f;
  }
}

TEST(BFloat16Test, RoundToNearestEven) {
  // bf16 keeps 8 mantissa bits: 1 + 2^-9 ties to 1.0.
  EXPECT_EQ(Bf16Round(1.0f + std::ldexp(1.0f, -9)), 1.0f);
  EXPECT_EQ(Bf16Round(1.0f + 3 * std::ldexp(1.0f, -9)),
            1.0f + std::ldexp(1.0f, -7));
}

TEST(BFloat16Test, NanStaysNan) {
  EXPECT_TRUE(std::isnan(Bf16Round(std::nanf(""))));
}

TEST(BFloat16Test, KeepsFloatExponentRange) {
  EXPECT_FALSE(std::isinf(Bf16Round(1e38f)));
  EXPECT_GT(Bf16Round(1e-38f), 0.0f);
}

}  // namespace
}  // namespace angelptm::util
