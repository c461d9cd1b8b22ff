#ifndef ANGELPTM_MEM_DEVICE_H_
#define ANGELPTM_MEM_DEVICE_H_

#include <cstdint>

namespace angelptm::mem {

/// The three storage tiers of the hierarchical memory, using the paper's
/// device map from the Page abstraction (Fig. 3): {0: GPU, 1: CPU, 2: SSD}.
///
/// In this reproduction the "GPU" tier is a capacity-bounded host arena (see
/// DESIGN.md §1): the memory-management behaviour under study — allocation,
/// paging, movement scheduling — only depends on capacities and bandwidth
/// asymmetry, which are preserved.
enum class DeviceKind : uint8_t {
  kGpu = 0,
  kCpu = 1,
  kSsd = 2,
};

inline constexpr int kNumDeviceKinds = 3;

/// Stable lowercase name ("gpu", "cpu", "ssd").
const char* DeviceKindName(DeviceKind kind);

/// Sentinel used by Tensor::device_index while some of the tensor's pages are
/// still in flight from another tier (footnote 2 of the paper).
inline constexpr int kDeviceNotReady = -1;

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_DEVICE_H_
