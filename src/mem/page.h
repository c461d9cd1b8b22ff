#ifndef ANGELPTM_MEM_PAGE_H_
#define ANGELPTM_MEM_PAGE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "mem/device.h"
#include "util/status.h"

namespace angelptm::mem {

/// Default page size. §4.1: "the minimum Page size that can fully utilize the
/// PCIe bandwidth is optimal for our system, i.e., 4MB."
inline constexpr size_t kDefaultPageBytes = 4ull * 1024 * 1024;

/// §4.1: "we decide to limit each page to contain information about a maximum
/// of two tensors at any given time."
inline constexpr int kMaxTensorsPerPage = 2;

inline constexpr uint64_t kInvalidTensorId = ~0ull;
inline constexpr uint64_t kInvalidSsdOffset = ~0ull;

/// The fine-grained memory unit of Angel-PTM (paper Fig. 3). A Page is the
/// minimum unit of every memory operation on hierarchical storage:
/// allocation, release and movement between tiers. (Fig. 3's remote
/// send/receive has no page-level transport here; collectives move buffers
/// over dist::ProcessGroup.) Tensors are composed of pages; a page hosts at
/// most two tensors.
///
/// A page has a *logical identity* (its id and tensor slots) and a *physical
/// residence* (which tier, and either a host pointer or an SSD file offset).
/// Residence is changed only by the owning HierarchicalMemory/CopyEngine;
/// slot bookkeeping is changed by the allocator that packs tensors.
class Page {
 public:
  /// One tensor's claim on a byte range of this page.
  struct Slot {
    uint64_t tensor_id = kInvalidTensorId;
    size_t bytes = 0;
    size_t offset = 0;  // Byte offset of the claim within the page.
    bool used = false;
  };

  Page(uint64_t id, size_t total_bytes)
      : id_(id), total_bytes_(total_bytes), available_bytes_(total_bytes) {}

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;
  Page(Page&&) = default;
  Page& operator=(Page&&) = default;

  uint64_t id() const { return id_; }
  size_t total_bytes() const { return total_bytes_; }
  size_t available_bytes() const { return available_bytes_; }
  DeviceKind device() const { return device_; }

  /// Host pointer to the page frame; null while the page resides on SSD.
  std::byte* data_ptr() const { return data_ptr_; }
  /// Byte offset within the SSD tier's backing file; kInvalidSsdOffset while
  /// the page resides in a memory tier.
  uint64_t ssd_offset() const { return ssd_offset_; }

  /// Reserves `required_bytes` of this page for tensor `tensor_id` (paper
  /// interface `allocate`). Allocation is bump-style from the low end.
  /// Fails with ResourceExhausted when fewer than `required_bytes` remain or
  /// both slots are taken, and with AlreadyExists if the tensor already has a
  /// slot here.
  [[nodiscard]] util::Status Allocate(size_t required_bytes, uint64_t tensor_id);

  /// Releases tensor `tensor_id`'s claim (paper interface `release`). Space
  /// becomes reusable immediately when the freed slot is the bump tail or
  /// when the page empties entirely; otherwise the hole is accounted as
  /// internal fragmentation until the page drains (the 2-tensor cap bounds
  /// this, which is the rationale for the cap in §4.1).
  [[nodiscard]] util::Status Release(uint64_t tensor_id);

  /// True when no tensor occupies the page.
  bool IsEmpty() const;
  /// Number of occupied slots.
  int NumTensors() const;
  /// True if `tensor_id` holds a slot here.
  bool HoldsTensor(uint64_t tensor_id) const;
  /// Slot lookup; returns nullptr when the tensor has no claim here.
  const Slot* FindSlot(uint64_t tensor_id) const;

  /// Bytes neither claimed by a live slot nor available for allocation
  /// (holes left by out-of-order releases).
  size_t FragmentedBytes() const;

  // --- Residence plumbing (used by HierarchicalMemory / CopyEngine). ---

  /// Installs memory-tier residence.
  void SetResidence(DeviceKind device, std::byte* data_ptr);
  /// Installs SSD residence.
  void SetSsdResidence(uint64_t ssd_offset);

  /// Monotonic counter bumped on every residence change; the scheduler uses
  /// it to detect in-flight pages.
  uint64_t residence_epoch() const { return residence_epoch_; }

  const std::array<Slot, kMaxTensorsPerPage>& slots() const { return slots_; }

 private:
  uint64_t id_;
  size_t total_bytes_;
  size_t available_bytes_;
  DeviceKind device_ = DeviceKind::kCpu;
  std::byte* data_ptr_ = nullptr;
  uint64_t ssd_offset_ = kInvalidSsdOffset;
  uint64_t residence_epoch_ = 0;
  std::array<Slot, kMaxTensorsPerPage> slots_{};
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_PAGE_H_
