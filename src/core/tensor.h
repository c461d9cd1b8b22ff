#ifndef ANGELPTM_CORE_TENSOR_H_
#define ANGELPTM_CORE_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dtype.h"
#include "mem/device.h"
#include "mem/page.h"
#include "util/status.h"

namespace angelptm::core {

/// The Tensor structure of the paper's Fig. 4: a multi-dimensional array of
/// numerical data composed of one or more pages. A tensor's bytes are the
/// concatenation of its slots on `pages()` in order; the last page may be
/// shared with one other tensor of the same allocation group.
///
/// Tensors are created and destroyed exclusively by core::Allocator (which
/// implements the paper's allocate/release/move/merge interfaces); this class
/// provides the data-plane views.
class Tensor {
 public:
  Tensor(uint64_t id, std::vector<size_t> shape, DType dtype)
      : id_(id), shape_(std::move(shape)), dtype_(dtype) {}

  Tensor(const Tensor&) = delete;
  Tensor& operator=(const Tensor&) = delete;

  uint64_t id() const { return id_; }
  const std::vector<size_t>& shape() const { return shape_; }
  DType dtype() const { return dtype_; }

  size_t NumElements() const;
  size_t SizeBytes() const { return NumElements() * DTypeBytes(dtype_); }

  /// Pages composing this tensor, in byte order.
  const std::vector<mem::Page*>& pages() const { return pages_; }

  /// The device all pages currently reside on, or kDeviceNotReady (-1) when
  /// pages are split across tiers (e.g. some still in flight) — footnote 2
  /// of the paper.
  int device_index() const;

  /// True when every page is in a directly-addressable memory tier (not SSD)
  /// on the same device.
  bool IsResident() const;

  /// True when the tensor's bytes form one contiguous host range (always
  /// true for single-page tensors; multi-page tensors need Allocator::Merge).
  bool IsContiguous() const;

  /// Direct pointer to the tensor's bytes; requires IsResident() and
  /// IsContiguous(). Aborts otherwise (programming error).
  std::byte* data();
  const std::byte* data() const;

  /// Calls `fn(span, bytes, offset)` for each page span in byte order:
  /// `span` points at the `bytes` bytes this tensor holds on that page,
  /// which are bytes [offset, offset + bytes) of the tensor. Stops at the
  /// first non-OK status `fn` returns; fails if a page is on the SSD tier.
  /// Lets callers copy or convert straight into and out of the pages.
  template <typename Fn>
  [[nodiscard]] util::Status ForEachSpan(Fn&& fn) const;

  /// Gathers the tensor's bytes (resident pages, any layout) into `dst`.
  [[nodiscard]] util::Status CopyOut(std::byte* dst, size_t bytes) const;
  /// Scatters `src` into the tensor's pages.
  [[nodiscard]] util::Status CopyIn(const std::byte* src, size_t bytes);
  /// Sets every byte to zero (0.0 in every dtype).
  [[nodiscard]] util::Status Clear();

  /// Typed accessors: fp32 copies, fp16/bf16 convert span by span between
  /// the pages and `values` (fp16 through core::FloatsToHalves/
  /// HalvesToFloats), with no whole-tensor temporary.
  [[nodiscard]] util::Status ReadFloats(std::vector<float>* out) const;
  [[nodiscard]] util::Status WriteFloats(const std::vector<float>& values);

  // --- Allocator plumbing ---
  std::vector<mem::Page*>* mutable_pages() { return &pages_; }

 private:
  uint64_t id_;
  std::vector<size_t> shape_;
  DType dtype_;
  std::vector<mem::Page*> pages_;
};

template <typename Fn>
util::Status Tensor::ForEachSpan(Fn&& fn) const {
  size_t offset = 0;
  for (mem::Page* page : pages_) {
    const mem::Page::Slot* slot = page->FindSlot(id_);
    if (slot == nullptr) {
      return util::Status::Internal("tensor " + std::to_string(id_) +
                                    " missing slot on page " +
                                    std::to_string(page->id()));
    }
    if (page->device() == mem::DeviceKind::kSsd) {
      return util::Status::FailedPrecondition(
          "tensor " + std::to_string(id_) + " has page on SSD");
    }
    ANGEL_RETURN_IF_ERROR(
        fn(page->data_ptr() + slot->offset, slot->bytes, offset));
    offset += slot->bytes;
  }
  return util::Status::OK();
}

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_TENSOR_H_
