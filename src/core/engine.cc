#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "core/unified_scheduler.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace angelptm::core {
namespace {

/// Copy-engine threads moving pages between tiers.
constexpr size_t kCopyThreads = 2;

constexpr int kNoUse = std::numeric_limits<int>::max();

/// The first of `use_ops` (ascending) at op `op` or later; kNoUse when no
/// use is left.
int NextUse(const std::vector<int>& use_ops, int op) {
  const auto next = std::lower_bound(use_ops.begin(), use_ops.end(), op);
  return next == use_ops.end() ? kNoUse : *next;
}

}  // namespace

Engine::Engine(const EngineOptions& options) : options_(options) {}

Engine::~Engine() {
  if (updater_ != nullptr) updater_->Stop();
  if (copy_engine_ != nullptr) copy_engine_->Drain();
  // Release working tensors before the allocator/memory go down.
  for (size_t l = 0; l < layers_.size(); ++l) {
    (void)ReleaseWorkingTensor(static_cast<int>(l));
  }
}

util::Result<std::unique_ptr<Engine>> Engine::Create(
    const EngineOptions& options) {
  std::unique_ptr<Engine> engine(new Engine(options));
  engine->memory_ =
      std::make_unique<mem::HierarchicalMemory>(options.memory);
  ANGEL_RETURN_IF_ERROR(engine->memory_->ssd_open_status());
  engine->allocator_ = std::make_unique<Allocator>(engine->memory_.get());
  engine->copy_engine_ = std::make_unique<mem::CopyEngine>(
      engine->memory_.get(), kCopyThreads);
  LockFreeUpdater::Options updater_options;
  updater_options.optimizer = options.optimizer;
  updater_options.master_device = options.master_device;
  engine->updater_ = std::make_unique<LockFreeUpdater>(
      engine->allocator_.get(), updater_options);
  return engine;
}

util::Result<int> Engine::RegisterLayer(
    const std::vector<float>& initial_params) {
  if (steps_completed_ > 0 || step_active_) {
    return util::Status::FailedPrecondition(
        "layers must be registered before training starts");
  }
  ANGEL_ASSIGN_OR_RETURN(const int index,
                         updater_->AddLayer(initial_params));
  WorkingLayer layer;
  layer.count = initial_params.size();
  layers_.push_back(std::move(layer));
  ANGEL_CHECK(index == int(layers_.size()) - 1);
  return index;
}

util::Status Engine::BeginStep() {
  ANGEL_SPAN("engine", "begin_step");
  if (step_active_) {
    return util::Status::FailedPrecondition("step already active");
  }
  if (layers_.empty()) {
    return util::Status::FailedPrecondition("no layers registered");
  }
  step_active_ = true;
  current_op_ = 0;
  if (options_.lock_free && !updater_->running()) {
    updater_->Start();
  }
  return IssueReadyPrefetches();
}

util::Status Engine::StageWorkingTensor(int layer_index) {
  WorkingLayer& layer = layers_[layer_index];
  ANGEL_ASSIGN_OR_RETURN(
      layer.tensor,
      allocator_->Allocate({layer.count}, DType::kFp16,
                           mem::DeviceKind::kCpu));
  return updater_->FetchParams(layer_index, layer.tensor);
}

void Engine::SettlePendingMoves(WorkingLayer& layer) {
  // Settle in-flight prefetch moves BEFORE inspecting residence: the
  // copy-engine worker writes the page's device, and the future is the only
  // synchronization edge between that write and this read. get() — not
  // wait() — so a failed move's Status is observed: its page stays
  // CPU-resident and the layer's use moves it on demand, so the failure is
  // counted rather than propagated.
  for (auto& future : layer.pending_moves) {
    const util::Status status = future.get();
    if (!status.ok()) {
      ++prefetch_move_failures_;
      ANGEL_LOG(Warning) << "prefetch move failed: " << status.ToString();
    }
  }
  layer.pending_moves.clear();
}

util::Status Engine::MoveWithEviction(int layer_index) {
  for (;;) {
    const util::Status moved =
        allocator_->Move(layers_[layer_index].tensor, mem::DeviceKind::kGpu);
    if (!moved.IsResourceExhausted()) return moved;
    // The tier is full: push another staged layer's working tensor back to
    // the CPU tier (it moves back at its next use — the on-demand behaviour
    // Algorithm 1's wait-stack creates under memory pressure). Victims go
    // by next traced use, farthest first (Belady). Every staged layer has a
    // use left this step, so nothing wraps into the next step; during the
    // warmup step no layer has a traced use yet, which leaves registration
    // order.
    std::vector<int> candidates;
    for (size_t l = 0; l < layers_.size(); ++l) {
      if (int(l) != layer_index && layers_[l].tensor != nullptr) {
        candidates.push_back(int(l));
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [this](int a, int b) {
                       return NextUse(layers_[a].use_ops, current_op_) >
                              NextUse(layers_[b].use_ops, current_op_);
                     });
    bool evicted = false;
    for (const int l : candidates) {
      WorkingLayer& other = layers_[l];
      SettlePendingMoves(other);
      if (other.tensor->device_index() !=
          static_cast<int>(mem::DeviceKind::kGpu)) {
        continue;
      }
      ANGEL_RETURN_IF_ERROR(
          allocator_->Move(other.tensor, mem::DeviceKind::kCpu));
      evicted = true;
      break;
    }
    if (!evicted) return moved;  // Nothing left to evict: genuine OOM.
  }
}

util::Status Engine::IssueReadyPrefetches() {
  for (size_t l = 0; l < layers_.size(); ++l) {
    WorkingLayer& layer = layers_[l];
    // A released layer has no traced use left: staging it again would only
    // copy p'16 for nothing.
    if (layer.tensor != nullptr || layer.issue_trigger < 0 ||
        layer.issue_trigger > current_op_ ||
        NextUse(layer.use_ops, current_op_) == kNoUse) {
      continue;
    }
    ANGEL_RETURN_IF_ERROR(StageWorkingTensor(static_cast<int>(l)));
    for (mem::Page* page : layer.tensor->pages()) {
      layer.pending_moves.push_back(
          copy_engine_->MoveAsync(page, mem::DeviceKind::kGpu));
    }
  }
  return util::Status::OK();
}

util::Result<std::vector<float>> Engine::UseLayerParams(int layer_index) {
  ANGEL_SPAN("engine", "use_layer_params");
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  if (layer_index < 0 || layer_index >= int(layers_.size())) {
    return util::Status::InvalidArgument("bad layer index");
  }
  WorkingLayer& layer = layers_[layer_index];
  // The warmup step records its order: Algorithm 1's input and the trace
  // every later step replays (BuildScheduleFromTrace).
  const bool tracing = schedule_ == nullptr;
  if (tracing) access_order_.push_back(layer_index);

  // Whether this use had to block anywhere; decided once, after the final
  // residence check, so a use is never counted as both a hit and a wait.
  bool waited = false;
  if (layer.tensor == nullptr) {
    // Unstaged: the warmup step, or a layer the schedule left CPU-resident
    // (memory pressure) — fetched on demand, Algorithm 1's wait stack.
    waited = true;
    ANGEL_RETURN_IF_ERROR(StageWorkingTensor(layer_index));
  } else {
    for (auto& future : layer.pending_moves) {
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        waited = true;
      }
    }
    SettlePendingMoves(layer);
  }
  // A fresh stage, a failed prefetch or an earlier eviction leaves the
  // layer off the fast tier.
  if (layer.tensor->device_index() !=
      static_cast<int>(mem::DeviceKind::kGpu)) {
    waited = true;
    ANGEL_RETURN_IF_ERROR(MoveWithEviction(layer_index));
  }
  if (!tracing) {
    // Exactly-once accounting: prefetch_hits_ + prefetch_waits_ ==
    // scheduled_uses_ (asserted by the engine test).
    ++scheduled_uses_;
    (waited ? prefetch_waits_ : prefetch_hits_) += 1;
  }

  std::vector<float> params;
  ANGEL_RETURN_IF_ERROR(layer.tensor->ReadFloats(&params));
  current_op_ += 1;
  // Release after the last traced use: the caller holds a copy.
  if (!tracing && NextUse(layer.use_ops, current_op_) == kNoUse) {
    ANGEL_RETURN_IF_ERROR(ReleaseWorkingTensor(layer_index));
  }
  ANGEL_RETURN_IF_ERROR(IssueReadyPrefetches());
  return params;
}

util::Status Engine::StashActivation(
    int layer_index, const std::vector<float>& activations) {
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  if (layer_index < 0 || layer_index >= int(layers_.size())) {
    return util::Status::InvalidArgument("bad layer index");
  }
  WorkingLayer& layer = layers_[layer_index];
  if (layer.activation_stash != nullptr) {
    return util::Status::AlreadyExists("activation already stashed for layer " +
                                       std::to_string(layer_index));
  }
  // Prefer the fast tier; spill to CPU under pressure (the hierarchical-
  // memory behaviour that frees GPU memory for the working set).
  auto on_gpu = allocator_->Allocate({activations.size()}, DType::kFp16,
                                     mem::DeviceKind::kGpu);
  if (on_gpu.ok()) {
    layer.activation_stash = *on_gpu;
  } else {
    ANGEL_ASSIGN_OR_RETURN(
        layer.activation_stash,
        allocator_->Allocate({activations.size()}, DType::kFp16,
                             mem::DeviceKind::kCpu));
  }
  return layer.activation_stash->WriteFloats(activations);
}

util::Result<std::vector<float>> Engine::FetchActivation(int layer_index) {
  if (layer_index < 0 || layer_index >= int(layers_.size())) {
    return util::Status::InvalidArgument("bad layer index");
  }
  WorkingLayer& layer = layers_[layer_index];
  if (layer.activation_stash == nullptr) {
    return util::Status::NotFound("no stashed activation for layer " +
                                  std::to_string(layer_index));
  }
  std::vector<float> activations;
  ANGEL_RETURN_IF_ERROR(layer.activation_stash->ReadFloats(&activations));
  ANGEL_RETURN_IF_ERROR(allocator_->Release(layer.activation_stash));
  layer.activation_stash = nullptr;
  return activations;
}

util::Status Engine::PushGrads(int layer_index, std::vector<float> grads) {
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  return updater_->OffloadGrads(layer_index, std::move(grads));
}

util::Status Engine::ReleaseWorkingTensor(int layer_index) {
  WorkingLayer& layer = layers_[layer_index];
  if (layer.tensor == nullptr) return util::Status::OK();
  SettlePendingMoves(layer);
  ANGEL_RETURN_IF_ERROR(allocator_->Release(layer.tensor));
  layer.tensor = nullptr;
  return util::Status::OK();
}

util::Status Engine::BuildScheduleFromTrace() {
  // One schedule step per traced use; each step reads all of its layer's
  // fp16 pages. Page ids are dense: layer l's pages follow layer l-1's.
  const size_t page_bytes = memory_->page_bytes();
  std::vector<std::vector<PageRef>> layer_pages(layers_.size());
  uint64_t next_page = 0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    for (uint64_t remaining = 2 * layers_[l].count; remaining > 0;) {
      const uint64_t bytes = std::min<uint64_t>(remaining, page_bytes);
      layer_pages[l].push_back({next_page++, bytes});
      remaining -= bytes;
    }
  }
  ScheduleInput input;
  input.world_size = 1;
  input.gpu_memory_budget = memory_->capacity_bytes(mem::DeviceKind::kGpu);
  for (const int layer : access_order_) {
    SchedStep step;
    step.param_pages = layer_pages[layer];
    input.steps.push_back(std::move(step));
  }

  ANGEL_ASSIGN_OR_RETURN(Schedule schedule, BuildSchedule(input));
  schedule_ = std::make_unique<Schedule>(std::move(schedule));

  for (size_t op = 0; op < access_order_.size(); ++op) {
    layers_[access_order_[op]].use_ops.push_back(int(op));
  }
  // Earliest movement trigger per layer; layers with no movement task stay
  // on demand. A move task's step is a step that reads its page, so that
  // step's layer owns the page.
  for (const Task& task : schedule_->tasks) {
    if (task.op != TaskOp::kMoveToGpu) continue;
    WorkingLayer& layer = layers_[access_order_[task.step]];
    if (layer.issue_trigger < 0 || task.trigger_id < layer.issue_trigger) {
      layer.issue_trigger = task.trigger_id;
    }
  }
  return util::Status::OK();
}

util::Status Engine::EndStep() {
  ANGEL_SPAN("engine", "end_step");
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  copy_engine_->Drain();
  for (size_t l = 0; l < layers_.size(); ++l) {
    ANGEL_RETURN_IF_ERROR(ReleaseWorkingTensor(static_cast<int>(l)));
    if (layers_[l].activation_stash != nullptr) {
      // A stash the caller never fetched (e.g. an aborted backward).
      ANGEL_RETURN_IF_ERROR(
          allocator_->Release(layers_[l].activation_stash));
      layers_[l].activation_stash = nullptr;
    }
  }
  if (schedule_ == nullptr) {
    ANGEL_RETURN_IF_ERROR(BuildScheduleFromTrace());
  }
  if (!options_.lock_free) {
    ANGEL_RETURN_IF_ERROR(updater_->UpdateOnce());
  }
  step_active_ = false;
  steps_completed_ += 1;
  return util::Status::OK();
}

}  // namespace angelptm::core
