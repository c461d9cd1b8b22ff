#include "core/dtype.h"

#include "train/simd/dispatch.h"
#include "train/simd/kernels_avx2.h"
#include "util/half.h"

namespace angelptm::core {

void FloatsToHalves(const float* src, uint16_t* dst, size_t n) {
  if (simd::Dispatch() == simd::IsaPath::kAvx2) {
    simd::avx2::FloatToHalfBlock(src, dst, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = util::FloatToHalfBits(src[i]);
}

void HalvesToFloats(const uint16_t* src, float* dst, size_t n) {
  if (simd::Dispatch() == simd::IsaPath::kAvx2) {
    simd::avx2::HalfToFloatBlock(src, dst, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = util::HalfBitsToFloat(src[i]);
}

}  // namespace angelptm::core
