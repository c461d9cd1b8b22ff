#include "core/tensor.h"

#include <cstring>

namespace angelptm::core {
namespace {

/// A 16-bit tensor's page span must hold whole, aligned elements; only an
/// odd page size can break that, and it is rejected rather than misread.
util::Status CheckHalfSpan(const std::byte* span, size_t bytes) {
  if (bytes % 2 != 0 ||
      reinterpret_cast<uintptr_t>(span) % alignof(uint16_t) != 0) {
    return util::Status::InvalidArgument(
        "16-bit tensor span splits an element (odd page size)");
  }
  return util::Status::OK();
}

}  // namespace

size_t Tensor::NumElements() const {
  size_t n = 1;
  for (size_t d : shape_) n *= d;
  return n;
}

int Tensor::device_index() const {
  if (pages_.empty()) return mem::kDeviceNotReady;
  const mem::DeviceKind first = pages_.front()->device();
  for (const mem::Page* page : pages_) {
    if (page->device() != first) return mem::kDeviceNotReady;
  }
  return static_cast<int>(first);
}

util::Status Tensor::CopyOut(std::byte* dst, size_t bytes) const {
  if (bytes != SizeBytes()) {
    return util::Status::InvalidArgument("CopyOut size mismatch");
  }
  return ForEachSpan([dst](const std::byte* src, size_t span_bytes,
                           size_t offset) {
    std::memcpy(dst + offset, src, span_bytes);
    return util::Status::OK();
  });
}

util::Status Tensor::CopyIn(const std::byte* src, size_t bytes) {
  if (bytes != SizeBytes()) {
    return util::Status::InvalidArgument("CopyIn size mismatch");
  }
  return ForEachSpan([src](std::byte* dst, size_t span_bytes, size_t offset) {
    std::memcpy(dst, src + offset, span_bytes);
    return util::Status::OK();
  });
}

util::Status Tensor::Clear() {
  return ForEachSpan([](std::byte* span, size_t bytes, size_t) {
    std::memset(span, 0, bytes);
    return util::Status::OK();
  });
}

util::Status Tensor::ReadFloats(std::vector<float>* out) const {
  out->resize(NumElements());
  float* values = out->data();
  if (dtype_ == DType::kFp32) {
    return CopyOut(reinterpret_cast<std::byte*>(values), SizeBytes());
  }
  return ForEachSpan([values](const std::byte* span, size_t bytes,
                              size_t offset) {
    ANGEL_RETURN_IF_ERROR(CheckHalfSpan(span, bytes));
    HalvesToFloats(reinterpret_cast<const uint16_t*>(span), values + offset / 2,
                   bytes / 2);
    return util::Status::OK();
  });
}

util::Status Tensor::WriteFloats(const std::vector<float>& values) {
  if (values.size() != NumElements()) {
    return util::Status::InvalidArgument("WriteFloats size mismatch");
  }
  if (dtype_ == DType::kFp32) {
    return CopyIn(reinterpret_cast<const std::byte*>(values.data()),
                  SizeBytes());
  }
  return ForEachSpan([&values](std::byte* span, size_t bytes,
                               size_t offset) {
    ANGEL_RETURN_IF_ERROR(CheckHalfSpan(span, bytes));
    FloatsToHalves(values.data() + offset / 2,
                   reinterpret_cast<uint16_t*>(span), bytes / 2);
    return util::Status::OK();
  });
}

}  // namespace angelptm::core
