#include "mem/hierarchical_memory.h"

#include <cstring>

#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::mem {

HierarchicalMemory::HierarchicalMemory(
    const HierarchicalMemoryOptions& options)
    : options_(options) {
  gpu_arena_ = std::make_unique<PageArena>(
      DeviceKind::kGpu, options.gpu_capacity_bytes, options.page_bytes);
  cpu_arena_ = std::make_unique<PageArena>(
      DeviceKind::kCpu, options.cpu_capacity_bytes, options.page_bytes);
  if (options.ssd_capacity_bytes > 0) {
    SsdTier::Options ssd_options;
    ssd_options.path = options.ssd_path;
    ssd_options.capacity_bytes = options.ssd_capacity_bytes;
    ssd_options.frame_bytes = options.page_bytes;
    ssd_options.throttle_bytes_per_sec = options.ssd_bandwidth_bytes_per_sec;
    ssd_open_status_ = ssd_.Open(ssd_options);
    ssd_enabled_ = ssd_open_status_.ok();
  }
}

HierarchicalMemory::~HierarchicalMemory() = default;

util::Status HierarchicalMemory::SsdUnavailable() const {
  if (!ssd_open_status_.ok()) return ssd_open_status_;
  return util::Status::FailedPrecondition("SSD tier not configured");
}

util::Result<Page*> HierarchicalMemory::CreatePage(DeviceKind initial_device) {
  auto page =
      std::make_unique<Page>(next_page_id_.fetch_add(1), options_.page_bytes);
  if (initial_device == DeviceKind::kSsd) {
    if (!ssd_enabled_) return SsdUnavailable();
    ANGEL_ASSIGN_OR_RETURN(uint64_t offset, ssd_.AcquireFrame());
    page->SetSsdResidence(offset);
  } else {
    ANGEL_ASSIGN_OR_RETURN(std::byte* frame,
                           MutableArena(initial_device).AcquireFrame());
    page->SetResidence(initial_device, frame);
  }
  Page* raw = page.get();
  util::MutexLock lock(registry_mutex_);
  pages_.emplace(raw->id(), std::move(page));
  return raw;
}

util::Status HierarchicalMemory::DestroyPage(Page* page, bool force) {
  if (page == nullptr) {
    return util::Status::InvalidArgument("null page");
  }
  if (!force && !page->IsEmpty()) {
    return util::Status::FailedPrecondition(
        "page " + std::to_string(page->id()) + " still hosts tensors");
  }
  if (page->device() == DeviceKind::kSsd) {
    ssd_.ReleaseFrame(page->ssd_offset());
  } else {
    MutableArena(page->device()).ReleaseFrame(page->data_ptr());
  }
  util::MutexLock lock(registry_mutex_);
  const size_t erased = pages_.erase(page->id());
  ANGEL_CHECK(erased == 1) << "destroying unregistered page";
  return util::Status::OK();
}

util::Status HierarchicalMemory::MovePageSync(Page* page, DeviceKind target) {
  if (page == nullptr) {
    return util::Status::InvalidArgument("null page");
  }
  ANGEL_FAULT_CHECK("hmem.move_page");
  const DeviceKind source = page->device();
  if (source == target) return util::Status::OK();
  ANGEL_SPAN("mem", "move_page");
  const size_t bytes = page->total_bytes();

  if ((target == DeviceKind::kSsd || source == DeviceKind::kSsd) &&
      !ssd_enabled_) {
    return SsdUnavailable();
  }

  if (target == DeviceKind::kSsd) {
    // Memory -> SSD: stage out through a real file write.
    ANGEL_ASSIGN_OR_RETURN(uint64_t offset, ssd_.AcquireFrame());
    const util::Status write = ssd_.WriteFrame(offset, page->data_ptr(), bytes);
    if (!write.ok()) {
      ssd_.ReleaseFrame(offset);
      return write;
    }
    MutableArena(source).ReleaseFrame(page->data_ptr());
    page->SetSsdResidence(offset);
  } else if (source == DeviceKind::kSsd) {
    // SSD -> memory.
    ANGEL_ASSIGN_OR_RETURN(std::byte* frame,
                           MutableArena(target).AcquireFrame());
    const util::Status read =
        ssd_.ReadFrame(page->ssd_offset(), frame, bytes);
    if (!read.ok()) {
      MutableArena(target).ReleaseFrame(frame);
      return read;
    }
    ssd_.ReleaseFrame(page->ssd_offset());
    page->SetResidence(target, frame);
  } else {
    // GPU <-> CPU over the (emulated) PCIe link.
    ANGEL_ASSIGN_OR_RETURN(std::byte* frame,
                           MutableArena(target).AcquireFrame());
    std::memcpy(frame, page->data_ptr(), bytes);
    MutableArena(source).ReleaseFrame(page->data_ptr());
    page->SetResidence(target, frame);
  }

  {
    util::MutexLock lock(stats_mutex_);
    auto& cell = move_stats_[static_cast<int>(source)][static_cast<int>(target)];
    cell.moves += 1;
    cell.bytes += bytes;
  }
  return util::Status::OK();
}

uint64_t HierarchicalMemory::used_bytes(DeviceKind device) const {
  switch (device) {
    case DeviceKind::kGpu:
      return gpu_arena_->used_bytes();
    case DeviceKind::kCpu:
      return cpu_arena_->used_bytes();
    case DeviceKind::kSsd:
      return ssd_enabled_
                 ? (ssd_.capacity_bytes() -
                    uint64_t{ssd_.free_frames()} * ssd_.frame_bytes())
                 : 0;
  }
  return 0;
}

uint64_t HierarchicalMemory::capacity_bytes(DeviceKind device) const {
  switch (device) {
    case DeviceKind::kGpu:
      return gpu_arena_->capacity_bytes();
    case DeviceKind::kCpu:
      return cpu_arena_->capacity_bytes();
    case DeviceKind::kSsd:
      return ssd_enabled_ ? ssd_.capacity_bytes() : 0;
  }
  return 0;
}

MemorySnapshot HierarchicalMemory::Snapshot() const {
  MemorySnapshot snapshot;
  snapshot.page_bytes = options_.page_bytes;
  for (const DeviceKind kind :
       {DeviceKind::kGpu, DeviceKind::kCpu, DeviceKind::kSsd}) {
    TierUsage& tier = snapshot.tiers[static_cast<int>(kind)];
    tier.used_bytes = used_bytes(kind);
    tier.capacity_bytes = capacity_bytes(kind);
  }
  {
    util::MutexLock lock(registry_mutex_);
    snapshot.live_pages = pages_.size();
    for (const auto& [id, page] : pages_) {
      snapshot.fragmented_bytes += page->FragmentedBytes();
      snapshot.tiers[static_cast<int>(page->device())].pages += 1;
    }
  }
  {
    util::MutexLock lock(stats_mutex_);
    snapshot.moves = move_stats_;
  }
  return snapshot;
}

PageArena& HierarchicalMemory::MutableArena(DeviceKind device) {
  switch (device) {
    case DeviceKind::kGpu:
      return *gpu_arena_;
    case DeviceKind::kCpu:
      return *cpu_arena_;
    case DeviceKind::kSsd:
      break;
  }
  ANGEL_FATAL() << "no arena for device " << DeviceKindName(device);
  __builtin_unreachable();
}

}  // namespace angelptm::mem
