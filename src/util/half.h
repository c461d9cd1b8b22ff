#ifndef ANGELPTM_UTIL_HALF_H_
#define ANGELPTM_UTIL_HALF_H_

#include <cstdint>

namespace angelptm::util {

/// Scalar bit conversions. The binary16 pair is the reference the bulk
/// core::FloatsToHalves / HalvesToFloats match bit for bit; the bfloat16
/// pair rounds the trainer's BF16 compute mode (§2.1).

/// Converts an IEEE-754 binary32 to binary16 bits with round-to-nearest-even,
/// handling subnormals, infinities and NaN.
uint16_t FloatToHalfBits(float f);

/// Converts IEEE-754 binary16 bits back to binary32.
float HalfBitsToFloat(uint16_t h);

/// Converts binary32 to bfloat16 bits with round-to-nearest-even.
uint16_t FloatToBFloat16Bits(float f);

/// Converts bfloat16 bits back to binary32 (exact).
float BFloat16BitsToFloat(uint16_t b);

}  // namespace angelptm::util

#endif  // ANGELPTM_UTIL_HALF_H_
