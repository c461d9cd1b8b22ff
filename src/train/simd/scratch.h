#ifndef ANGELPTM_TRAIN_SIMD_SCRATCH_H_
#define ANGELPTM_TRAIN_SIMD_SCRATCH_H_

#include <cstddef>

namespace angelptm::simd {

/// Slots of the per-thread scratch arena. Each slot is an independent
/// reusable buffer; a kernel may hold several at once (the packed GEMM
/// holds an A-panel and a B-panel simultaneously, and causal attention
/// holds its per-head panels in kAttention while it calls the GEMM).
enum class ScratchSlot { kPackA = 0, kPackB = 1, kAttention = 2 };
inline constexpr int kNumScratchSlots = 3;

/// Returns a 64-byte-aligned, thread-local buffer of at least `floats`
/// floats for `slot`. The buffer is reused across calls on the same thread
/// and grows geometrically (never shrinks), so steady-state kernel inner
/// loops perform no allocation — a macro-tile's packing buffers are
/// amortized to a handful of mallocs per thread per process lifetime.
/// Contents are unspecified on entry. The pointer stays valid until the
/// next ThreadScratch call on the same thread with the same slot, or
/// thread exit.
float* ThreadScratch(ScratchSlot slot, size_t floats);

/// Capacity (in floats) currently held by this thread's `slot` buffer;
/// exposed for tests asserting the no-allocation steady state.
size_t ThreadScratchCapacity(ScratchSlot slot);

}  // namespace angelptm::simd

#endif  // ANGELPTM_TRAIN_SIMD_SCRATCH_H_
