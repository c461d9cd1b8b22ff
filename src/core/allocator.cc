#include "core/allocator.h"

#include <string>

namespace angelptm::core {

Allocator::Allocator(mem::HierarchicalMemory* memory) : memory_(memory) {}

Allocator::~Allocator() {
  // Live tensors at teardown are released so their frames return to tiers.
  util::MutexLock lock(mutex_);
  for (auto& [id, tensor] : tensors_) {
    for (mem::Page* page : tensor->pages()) {
      (void)page->Release(id);
      if (page->IsEmpty()) {
        ForgetOpenPage(page);
        (void)memory_->DestroyPage(page);
      }
    }
  }
  tensors_.clear();
}

util::Result<Tensor*> Allocator::Allocate(std::vector<size_t> shape,
                                          DType dtype,
                                          mem::DeviceKind device,
                                          uint64_t group) {
  size_t elements = 1;
  for (size_t d : shape) elements *= d;
  if (elements == 0) {
    return util::Status::InvalidArgument("tensor with zero elements");
  }
  util::MutexLock lock(mutex_);
  auto tensor =
      std::make_unique<Tensor>(next_tensor_id_++, std::move(shape), dtype);
  Tensor* raw = tensor.get();
  ANGEL_RETURN_IF_ERROR(AllocatePagesLocked(raw, device, group));
  allocated_bytes_ += raw->SizeBytes();
  tensors_.emplace(raw->id(), std::move(tensor));
  return raw;
}

util::Status Allocator::AllocatePagesLocked(Tensor* tensor,
                                            mem::DeviceKind device,
                                            uint64_t group) {
  const size_t page_bytes = memory_->page_bytes();
  const size_t total = tensor->SizeBytes();
  const size_t full_pages = total / page_bytes;
  const size_t tail = total % page_bytes;

  std::vector<mem::Page*> created;
  auto rollback = [&]() ANGEL_REQUIRES(mutex_) {
    for (mem::Page* page : created) {
      (void)page->Release(tensor->id());
      if (page->IsEmpty()) {
        ForgetOpenPage(page);
        (void)memory_->DestroyPage(page);
        page_capacity_bytes_ -= page_bytes;
      }
    }
  };

  for (size_t i = 0; i < full_pages; ++i) {
    auto page = memory_->CreatePage(device);
    if (!page.ok()) {
      rollback();
      return page.status();
    }
    const util::Status alloc = (*page)->Allocate(page_bytes, tensor->id());
    if (!alloc.ok()) {
      (void)memory_->DestroyPage(*page);
      rollback();
      return alloc;
    }
    created.push_back(*page);
    page_capacity_bytes_ += page_bytes;
  }

  if (tail > 0) {
    mem::Page* tail_page = nullptr;
    bool reused_open_page = false;
    if (group != kNoGroup) {
      const auto it = open_pages_.find(OpenPageKey{device, group});
      if (it != open_pages_.end() && it->second->available_bytes() >= tail &&
          it->second->NumTensors() < mem::kMaxTensorsPerPage) {
        tail_page = it->second;
        reused_open_page = true;
      }
    }
    if (tail_page == nullptr) {
      auto page = memory_->CreatePage(device);
      if (!page.ok()) {
        rollback();
        return page.status();
      }
      tail_page = *page;
      page_capacity_bytes_ += page_bytes;
    }
    const util::Status alloc = tail_page->Allocate(tail, tensor->id());
    if (!alloc.ok()) {
      if (!reused_open_page) {
        page_capacity_bytes_ -= page_bytes;
        (void)memory_->DestroyPage(tail_page);
      }
      rollback();
      return alloc;
    }
    created.push_back(tail_page);
    // Update the open-page registry for tail sharing within the group.
    if (group != kNoGroup) {
      if (tail_page->NumTensors() >= mem::kMaxTensorsPerPage) {
        open_pages_.erase(OpenPageKey{device, group});
      } else if (!reused_open_page) {
        open_pages_[OpenPageKey{device, group}] = tail_page;
      }
    }
  }

  *tensor->mutable_pages() = std::move(created);
  return util::Status::OK();
}

util::Status Allocator::Release(Tensor* tensor) {
  if (tensor == nullptr) return util::Status::InvalidArgument("null tensor");
  util::MutexLock lock(mutex_);
  const auto it = tensors_.find(tensor->id());
  if (it == tensors_.end() || it->second.get() != tensor) {
    return util::Status::NotFound("tensor " + std::to_string(tensor->id()) +
                                  " not owned by this allocator");
  }
  for (mem::Page* page : tensor->pages()) {
    ANGEL_RETURN_IF_ERROR(page->Release(tensor->id()));
    if (page->IsEmpty()) {
      ForgetOpenPage(page);
      ANGEL_RETURN_IF_ERROR(memory_->DestroyPage(page));
      page_capacity_bytes_ -= memory_->page_bytes();
    }
  }
  allocated_bytes_ -= tensor->SizeBytes();
  tensors_.erase(it);
  return util::Status::OK();
}

util::Status Allocator::Move(Tensor* tensor, mem::DeviceKind target) {
  if (tensor == nullptr) return util::Status::InvalidArgument("null tensor");
  {
    // A moved page can no longer serve as an open tail on its old tier.
    // Once forgotten, no allocation can reach these pages, so the moves
    // below run without the lock, as the copy engine's do.
    util::MutexLock lock(mutex_);
    for (const mem::Page* page : tensor->pages()) ForgetOpenPage(page);
  }
  for (mem::Page* page : tensor->pages()) {
    ANGEL_RETURN_IF_ERROR(memory_->MovePageSync(page, target));
  }
  return util::Status::OK();
}

size_t Allocator::num_tensors() const {
  util::MutexLock lock(mutex_);
  return tensors_.size();
}

uint64_t Allocator::allocated_bytes() const {
  util::MutexLock lock(mutex_);
  return allocated_bytes_;
}

uint64_t Allocator::padding_bytes() const {
  util::MutexLock lock(mutex_);
  return page_capacity_bytes_ - allocated_bytes_;
}

void Allocator::ForgetOpenPage(const mem::Page* page) {
  for (auto it = open_pages_.begin(); it != open_pages_.end();) {
    if (it->second == page) {
      it = open_pages_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace angelptm::core
