#ifndef ANGELPTM_CORE_DTYPE_H_
#define ANGELPTM_CORE_DTYPE_H_

#include <cstddef>
#include <cstdint>

namespace angelptm::core {

/// Element types handled by the memory subsystem. Mixed-precision training
/// stores model states in kFp32 and computes in kFp16/kBf16 (§2.1).
enum class DType : uint8_t {
  kFp16 = 0,
  kBf16 = 1,
  kFp32 = 2,
};

inline constexpr size_t DTypeBytes(DType dtype) {
  switch (dtype) {
    case DType::kFp16:
    case DType::kBf16:
      return 2;
    case DType::kFp32:
      return 4;
  }
  return 0;
}

inline constexpr const char* DTypeName(DType dtype) {
  switch (dtype) {
    case DType::kFp16:
      return "fp16";
    case DType::kBf16:
      return "bf16";
    case DType::kFp32:
      return "fp32";
  }
  return "unknown";
}

/// Bulk binary32 -> binary16 conversion: dst[i] = util::FloatToHalfBits(
/// src[i]) for i < n, bit for bit on every input. Dispatched like
/// core::AdamUpdate: F16C blocks on the avx2 path, the scalar function on
/// the scalar path. Every fp16 tensor, the updater's fp16 mirror and the
/// engine's staging convert through this pair.
void FloatsToHalves(const float* src, uint16_t* dst, size_t n);

/// Bulk binary16 -> binary32 conversion: dst[i] = util::HalfBitsToFloat(
/// src[i]) for i < n, bit for bit on every input; dispatched likewise.
void HalvesToFloats(const uint16_t* src, float* dst, size_t n);

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_DTYPE_H_
