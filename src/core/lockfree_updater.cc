#include "core/lockfree_updater.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::core {
namespace {

/// Seqlock payload words holding `count` fp16 values: the payload bytes
/// are the fp16 array's bytes, two halves per uint32_t word.
size_t MirrorWords(size_t count) { return (count + 1) / 2; }

/// Halves converted per step of the fp32 FetchParams (a stack chunk).
constexpr size_t kFetchChunk = 2048;

}  // namespace

LockFreeUpdater::LockFreeUpdater(Allocator* allocator, const Options& options)
    : allocator_(allocator), options_(options) {
  obs::Registry& registry = obs::Registry::Instance();
  metric_updates_applied_ = registry.GetCounter("updater/updates_applied");
  metric_grad_batches_offloaded_ =
      registry.GetCounter("updater/grad_batches_offloaded");
  metric_pending_batches_ = registry.GetGauge("updater/pending_batches");
  metric_staleness_ = registry.GetHistogram("updater/staleness");

  auto optimizer = Optimizer::Create(options_.optimizer);
  if (optimizer.ok()) {
    optimizer_ = std::move(optimizer).value();
  } else {
    // Constructors cannot fail; poisoning makes the configuration error
    // surface on the first AddLayer / FetchParams instead of crashing.
    Poison(optimizer.status());
  }
}

LockFreeUpdater::~LockFreeUpdater() {
  Stop();
  for (auto& layer : layers_) {
    for (Tensor* tensor : {layer->p32, layer->buffered_params,
                           layer->buffered_grads}) {
      if (tensor != nullptr) (void)allocator_->Release(tensor);
    }
    for (Tensor* tensor : layer->slots) {
      if (tensor != nullptr) (void)allocator_->Release(tensor);
    }
  }
}

const std::string& LockFreeUpdater::optimizer_rule() const {
  return optimizer_ != nullptr ? optimizer_->name() : options_.optimizer.rule;
}

util::Result<int> LockFreeUpdater::AddLayer(
    const std::vector<float>& initial_params) {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (running_.load()) {
    return util::Status::FailedPrecondition(
        "cannot add layers while the updater is running");
  }
  if (initial_params.empty()) {
    return util::Status::InvalidArgument("layer with no parameters");
  }
  auto layer = std::make_unique<Layer>();
  layer->count = initial_params.size();
  layer->slot_layout = optimizer_->SlotLayout(layer->count);
  const std::vector<size_t> shape = {layer->count};
  // Masters and fp16 buffers get distinct groups: grouped tensors share
  // tail pages and therefore co-migrate, and the buffers must stay on the
  // CPU tier while the masters move to the master device.
  const uint64_t group = 1000 + 2 * layers_.size();
  const uint64_t buffer_group = group + 1;

  // Master states start on the CPU tier so they can be initialized, then
  // migrate to the configured master device (a real file write for SSD).
  ANGEL_ASSIGN_OR_RETURN(
      layer->p32,
      allocator_->Allocate(shape, DType::kFp32, mem::DeviceKind::kCpu, group));
  for (const SlotSpec& spec : layer->slot_layout) {
    ANGEL_ASSIGN_OR_RETURN(
        Tensor * slot,
        allocator_->Allocate({spec.count}, spec.dtype, mem::DeviceKind::kCpu,
                             group));
    layer->slots.push_back(slot);
  }
  ANGEL_ASSIGN_OR_RETURN(
      layer->buffered_params,
      allocator_->Allocate(shape, DType::kFp16, mem::DeviceKind::kCpu,
                           buffer_group));
  ANGEL_ASSIGN_OR_RETURN(
      layer->buffered_grads,
      allocator_->Allocate(shape, DType::kFp16, mem::DeviceKind::kCpu,
                           buffer_group));

  ANGEL_RETURN_IF_ERROR(layer->p32->WriteFloats(initial_params));
  for (Tensor* slot : layer->slots) ANGEL_RETURN_IF_ERROR(slot->Clear());
  ANGEL_RETURN_IF_ERROR(layer->buffered_grads->Clear());
  layer->param_mirror.Reset(MirrorWords(layer->count));
  {
    util::MutexLock lock(layer->buffer_mutex);
    ANGEL_RETURN_IF_ERROR(InstallParams(*layer, initial_params));
  }

  if (options_.master_device != mem::DeviceKind::kCpu) {
    ANGEL_RETURN_IF_ERROR(
        allocator_->Move(layer->p32, options_.master_device));
    for (Tensor* tensor : layer->slots) {
      ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, options_.master_device));
    }
  }
  {
    util::MutexLock lock(backpressure_mutex_);
    inflight_batches_.push_back(0);
  }
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

util::Status LockFreeUpdater::InstallParams(
    Layer& layer, const std::vector<float>& values) {
  ANGEL_RETURN_IF_ERROR(layer.buffered_params->WriteFloats(values));
  // The mirror publishes the very bits p'16 now holds, span by span, so a
  // lockless FetchParams returns what a locked read of p'16 would.
  util::Status status;
  layer.param_mirror.WriteWith([&layer, &status](auto store) {
    status = layer.buffered_params->ForEachSpan(
        [&store](const std::byte* span, size_t bytes, size_t offset) {
          store(offset, span, bytes);
          return util::Status::OK();
        });
  });
  return status;
}

util::Status LockFreeUpdater::FetchParams(int layer_index,
                                          std::vector<float>* out) const {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  ANGEL_SPAN("updater", "fetch_params");
  const Layer& layer = *layers_[layer_index];
  // Lockless read (DESIGN.md §13): a consistent seqlock snapshot of the
  // published fp16 bits, never contending with the buffering thread,
  // converted chunk by chunk straight out of the mirror.
  out->resize(layer.count);
  float* values = out->data();
  const size_t count = layer.count;
  layer.param_mirror.ReadWith([values, count](auto load) {
    uint16_t chunk[kFetchChunk];
    for (size_t i = 0; i < count; i += kFetchChunk) {
      const size_t n = std::min(kFetchChunk, count - i);
      load(2 * i, chunk, 2 * n);
      HalvesToFloats(chunk, values + i, n);
    }
  });
  return util::Status::OK();
}

util::Status LockFreeUpdater::FetchParams(int layer_index, Tensor* out) const {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  const Layer& layer = *layers_[layer_index];
  if (out->dtype() != DType::kFp16 || out->NumElements() != layer.count) {
    return util::Status::InvalidArgument(
        "FetchParams needs an fp16 tensor of the layer's size");
  }
  ANGEL_SPAN("updater", "fetch_params");
  util::Status status;
  layer.param_mirror.ReadWith([out, &status](auto load) {
    status = out->ForEachSpan(
        [&load](std::byte* span, size_t bytes, size_t offset) {
          load(offset, span, bytes);
          return util::Status::OK();
        });
  });
  return status;
}

util::Result<uint64_t> LockFreeUpdater::ParamsVersion(int layer_index) const {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  return layers_[layer_index]->param_mirror.version();
}

util::Status LockFreeUpdater::OffloadGrads(int layer_index,
                                           const std::vector<float>& grads) {
  // Fail fast once poisoned: accepting more gradients would only grow the
  // queue behind a dead updating thread.
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  if (grads.size() != layers_[layer_index]->count) {
    return util::Status::InvalidArgument("gradient size mismatch");
  }
  ANGEL_SPAN("updater", "offload_grads");
  if (running_.load()) {
    // Staleness valve (see the class comment): wait while this layer is at
    // the in-flight bound so an oversubscribed compute loop cannot run
    // unboundedly ahead of the updating thread. The timed wait is only a
    // backstop; UpdateLayer notifies after taking the layer's batches, and
    // poison / Stop are re-checked so a dead updater never wedges us here.
    {
      util::MutexLock lock(backpressure_mutex_);
      const size_t bound = options_.max_pending_batches_per_layer;
      bool waited = false;
      while (bound > 0 &&
             inflight_batches_[size_t(layer_index)] >= bound &&
             running_.load() &&
             !poisoned_.load(std::memory_order_acquire)) {
        waited = true;
        (void)backpressure_cv_.WaitFor(backpressure_mutex_,
                                       std::chrono::milliseconds(10));
      }
      if (poisoned_.load(std::memory_order_acquire)) return status();
      inflight_batches_[size_t(layer_index)] += 1;
      if (waited) backpressure_waits_.fetch_add(1);
    }
    grad_batches_offloaded_.fetch_add(1);
    metric_grad_batches_offloaded_->Increment();
    metric_pending_batches_->Set(
        static_cast<int64_t>(pending_grad_batches()));
    {
      util::MutexLock lock(queue_mutex_);
      buffer_queue_.push_back(BufferTask{layer_index, false, grads});
      queue_cv_.NotifyOne();
    }
    // Wake the updating thread (it re-checks after the buffering thread
    // actually accumulates, so a wakeup that arrives early is harmless).
    SignalWork();
    return util::Status::OK();
  }
  // Synchronous mode: accumulate inline (the buffering thread's job). No
  // valve — UpdateOnce applies inline, so nothing can run ahead.
  grad_batches_offloaded_.fetch_add(1);
  metric_grad_batches_offloaded_->Increment();
  metric_pending_batches_->Set(
      static_cast<int64_t>(pending_grad_batches()));
  Layer& layer = *layers_[layer_index];
  util::MutexLock lock(layer.buffer_mutex);
  std::vector<float> accumulated;
  ANGEL_RETURN_IF_ERROR(layer.buffered_grads->ReadFloats(&accumulated));
  for (size_t i = 0; i < accumulated.size(); ++i) accumulated[i] += grads[i];
  ANGEL_RETURN_IF_ERROR(layer.buffered_grads->WriteFloats(accumulated));
  layer.pending_batches += 1;
  return util::Status::OK();
}

void LockFreeUpdater::Start() {
  if (running_.exchange(true)) return;
  {
    util::MutexLock lock(queue_mutex_);
    installs_closed_ = false;
  }
  buffering_thread_ = std::thread([this] { BufferingThreadLoop(); });
  updating_thread_ = std::thread([this] { UpdatingThreadLoop(); });
}

void LockFreeUpdater::Stop() {
  if (!running_.exchange(false)) return;
  // Producer before consumer: the updating thread queues parameter installs
  // for the buffering thread, so it is joined first; only then may the
  // buffering thread exit, after applying every install still queued.
  backpressure_cv_.NotifyAll();
  SignalWork();
  if (updating_thread_.joinable()) updating_thread_.join();
  {
    util::MutexLock lock(queue_mutex_);
    installs_closed_ = true;
  }
  queue_cv_.NotifyAll();
  if (buffering_thread_.joinable()) buffering_thread_.join();
}

void LockFreeUpdater::SignalWork() {
  {
    util::MutexLock lock(work_mutex_);
    work_epoch_ += 1;
  }
  work_cv_.NotifyAll();
}

util::Result<bool> LockFreeUpdater::UpdateLayer(int layer_index,
                                                 bool queue_install) {
  ANGEL_SPAN("updater", "update_layer");
  Layer* layer = layers_[layer_index].get();
  // Snapshot-and-clear the accumulated fp16 gradients (see class comment).
  std::vector<float> grads;
  uint64_t batches_taken = 0;
  {
    util::MutexLock lock(layer->buffer_mutex);
    if (layer->pending_batches == 0) return false;
    ANGEL_RETURN_IF_ERROR(layer->buffered_grads->ReadFloats(&grads));
    ANGEL_RETURN_IF_ERROR(layer->buffered_grads->Clear());
    batches_taken = layer->pending_batches;
    layer->pending_batches = 0;
  }
  {
    // Release the staleness valve: these batches are no longer in flight.
    // Saturating, because batches offloaded in synchronous mode (no valve
    // accounting) may be taken here after a Stop().
    util::MutexLock lock(backpressure_mutex_);
    uint64_t& inflight = inflight_batches_[size_t(layer_index)];
    inflight -= std::min(inflight, batches_taken);
  }
  backpressure_cv_.NotifyAll();
  // Average the accumulated gradient batches.
  if (batches_taken > 1) {
    const float inv = 1.0f / float(batches_taken);
    for (float& g : grads) g *= inv;
  }

  // Fetch fp32 states from the master device (Algorithm 2 line 4; a real
  // SSD read when the master tier is the SSD). The master mutex quiesces
  // this one layer against concurrent checkpoint snapshots.
  const bool on_ssd = options_.master_device == mem::DeviceKind::kSsd;
  {
    util::MutexLock master_lock(layer->master_mutex);
    if (on_ssd) {
      ANGEL_RETURN_IF_ERROR(
          allocator_->Move(layer->p32, mem::DeviceKind::kCpu));
      for (Tensor* tensor : layer->slots) {
        ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, mem::DeviceKind::kCpu));
      }
    }
    std::vector<float> p;
    ANGEL_RETURN_IF_ERROR(layer->p32->ReadFloats(&p));
    std::vector<std::vector<float>> slot_values(layer->slots.size());
    std::vector<SlotView> views(layer->slots.size());
    for (size_t s = 0; s < layer->slots.size(); ++s) {
      ANGEL_RETURN_IF_ERROR(layer->slots[s]->ReadFloats(&slot_values[s]));
      views[s] = SlotView{slot_values[s].data(), slot_values[s].size()};
    }

    layer->step += 1;
    ANGEL_RETURN_IF_ERROR(optimizer_->Update(p.data(), grads.data(),
                                             layer->count, views,
                                             layer->step));

    ANGEL_RETURN_IF_ERROR(layer->p32->WriteFloats(p));
    for (size_t s = 0; s < layer->slots.size(); ++s) {
      ANGEL_RETURN_IF_ERROR(layer->slots[s]->WriteFloats(slot_values[s]));
    }

    // Hand the fresh parameters to the buffering side (line 6), overlapping
    // with the SSD write-back (line 7).
    if (queue_install) {
      util::MutexLock lock(queue_mutex_);
      buffer_queue_.push_back(BufferTask{layer_index, true, std::move(p)});
      queue_cv_.NotifyOne();
    } else {
      util::MutexLock lock(layer->buffer_mutex);
      ANGEL_RETURN_IF_ERROR(InstallParams(*layer, p));
    }

    if (on_ssd) {
      ANGEL_RETURN_IF_ERROR(
          allocator_->Move(layer->p32, mem::DeviceKind::kSsd));
      for (Tensor* tensor : layer->slots) {
        ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, mem::DeviceKind::kSsd));
      }
    }
  }
  updates_applied_.fetch_add(1);
  grad_batches_applied_.fetch_add(batches_taken);
  metric_updates_applied_->Increment();
  metric_staleness_->Record(batches_taken);
  metric_pending_batches_->Set(
      static_cast<int64_t>(pending_grad_batches()));
  {
    util::MutexLock lock(staleness_mutex_);
    staleness_.Record(batches_taken);
  }
  return true;
}

void LockFreeUpdater::UpdatingThreadLoop() {
  while (running_.load() && !poisoned_.load(std::memory_order_acquire)) {
    uint64_t epoch_seen;
    {
      util::MutexLock lock(work_mutex_);
      epoch_seen = work_epoch_;
    }
    bool any = false;
    // Algorithm 2 line 3: walk layers in reverse (gradients arrive in
    // backward order, so the last layers are dirty first).
    for (int i = num_layers() - 1; i >= 0 && running_.load(); --i) {
      auto updated = UpdateLayer(i, /*queue_install=*/true);
      if (!updated.ok()) {
        // An error here (e.g. an SSD failure that survived the retry
        // policy) is unrecoverable for this thread: poison the updater so
        // the compute side and DrainUpdates observe it instead of hanging.
        Poison(updated.status());
        return;
      }
      any = any || *updated;
    }
    if (!any) {
      // Idle: sleep until SignalWork bumps the epoch (grads offloaded /
      // accumulated, poison, Stop). A signal that fired mid-scan shows as
      // a changed epoch, so no wakeup is ever lost. The timed backstop
      // only bounds the cost of a hypothetical missed signal.
      bool woken_by_work = false;
      {
        util::MutexLock lock(work_mutex_);
        while (work_epoch_ == epoch_seen && running_.load() &&
               !poisoned_.load(std::memory_order_acquire)) {
          if (!work_cv_.WaitFor(work_mutex_, std::chrono::milliseconds(10))) {
            break;
          }
        }
        woken_by_work = work_epoch_ != epoch_seen;
      }
      if (woken_by_work && options_.updater_coalesce_us > 0 &&
          running_.load() && !poisoned_.load(std::memory_order_acquire)) {
        // Coalescing window (see the class comment): the signal was the
        // first gradient of a backward pass; give the rest of the pass a
        // moment to land so the sweep folds them into one update instead
        // of degenerating into per-gradient single-batch updates.
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.updater_coalesce_us));
      }
    }
  }
}

void LockFreeUpdater::BufferingThreadLoop() {
  for (;;) {
    BufferTask task;
    {
      util::MutexLock lock(queue_mutex_);
      while (buffer_queue_.empty() && !installs_closed_ &&
             !poisoned_.load(std::memory_order_acquire)) {
        queue_cv_.Wait(queue_mutex_);
      }
      if (poisoned_.load(std::memory_order_acquire)) return;
      if (buffer_queue_.empty()) return;  // Stop() closed the queue.
      task = std::move(buffer_queue_.front());
      buffer_queue_.pop_front();
    }
    Layer& layer = *layers_[task.layer];
    ANGEL_SPAN("updater",
               task.is_params ? "buffer_install" : "buffer_accumulate");
    {
      util::MutexLock lock(layer.buffer_mutex);
      if (task.is_params) {
        // Install updated parameters into p'16 (Algorithm 2 line 13) and
        // publish the new version through the seqlock mirror.
        util::Status status =
            util::FaultInjector::Instance().Check("updater.buffer_install");
        if (status.ok()) status = InstallParams(layer, task.data);
        if (!status.ok()) {
          // A failed install leaves the compute side reading stale (but
          // consistent) parameters forever; that is silent divergence, so
          // treat it as fatal rather than logging and moving on.
          Poison(status);
          return;
        }
        continue;
      }
      // Accumulate into g'16 (line 15).
      std::vector<float> accumulated;
      util::Status status =
          util::FaultInjector::Instance().Check("updater.buffer_accumulate");
      if (status.ok()) status = layer.buffered_grads->ReadFloats(&accumulated);
      if (status.ok()) {
        for (size_t i = 0; i < accumulated.size(); ++i) {
          accumulated[i] += task.data[i];
        }
        status = layer.buffered_grads->WriteFloats(accumulated);
      }
      if (!status.ok()) {
        // The batch was lost; marking it pending anyway would make the
        // updater apply a zero (or partial) gradient and report it drained.
        Poison(status);
        return;
      }
      layer.pending_batches += 1;
    }
    // The gradient is now visible to UpdateLayer: wake the updating thread.
    SignalWork();
  }
}

util::Status LockFreeUpdater::UpdateOnce() {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (running_.load()) {
    return util::Status::FailedPrecondition(
        "UpdateOnce is the synchronous path; Stop() the threads first");
  }
  for (int i = num_layers() - 1; i >= 0; --i) {
    const util::Status layer_status =
        UpdateLayer(i, /*queue_install=*/false).status();
    if (!layer_status.ok()) {
      Poison(layer_status);
      return layer_status;
    }
  }
  return util::Status::OK();
}

util::Status LockFreeUpdater::DrainUpdates(std::chrono::milliseconds deadline) {
  const auto deadline_at = std::chrono::steady_clock::now() + deadline;
  while (true) {
    if (poisoned_.load(std::memory_order_acquire)) return status();
    {
      util::MutexLock lock(queue_mutex_);
      const bool queue_empty = buffer_queue_.empty();
      if (queue_empty && grad_batches_applied_.load() ==
                             grad_batches_offloaded_.load()) {
        return util::Status::OK();
      }
    }
    if (std::chrono::steady_clock::now() >= deadline_at) {
      return util::Status::DeadlineExceeded(
          "DrainUpdates: " + std::to_string(pending_grad_batches()) +
          " gradient batches still pending after " +
          std::to_string(deadline.count()) + "ms");
    }
    if (!running_.load()) {
      // No threads to make progress; apply inline.
      ANGEL_RETURN_IF_ERROR(UpdateOnce());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

util::Status LockFreeUpdater::status() const {
  // Lockless fast path and slow path alike: the acquire load pairs with
  // Poison's release store, after which poison_status_ is immutable.
  if (!poisoned_.load(std::memory_order_acquire)) return util::Status::OK();
  return poison_status_;
}

void LockFreeUpdater::Poison(const util::Status& status) {
  {
    util::MutexLock lock(poison_mutex_);
    // Keep the first (root-cause) error; later failures are usually
    // downstream of it. The mutex serializes racing Poison calls only —
    // readers never take it (see the poison_status_ comment in the header).
    if (poisoned_.load(std::memory_order_relaxed)) return;
    poison_status_ = status;
    poisoned_.store(true, std::memory_order_release);
  }
  ANGEL_LOG(Error) << "lock-free updater poisoned: " << status.ToString();
  // Wake both background threads (and any compute thread blocked on the
  // staleness valve) so they observe the state promptly.
  queue_cv_.NotifyAll();
  backpressure_cv_.NotifyAll();
  SignalWork();
}

util::Status LockFreeUpdater::ReadMasterParams(int layer_index,
                                               std::vector<float>* out) {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  Layer& layer = *layers_[layer_index];
  util::MutexLock master_lock(layer.master_mutex);
  const bool on_ssd = layer.p32->device_index() ==
                      static_cast<int>(mem::DeviceKind::kSsd);
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(allocator_->Move(layer.p32, mem::DeviceKind::kCpu));
  }
  ANGEL_RETURN_IF_ERROR(layer.p32->ReadFloats(out));
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(allocator_->Move(layer.p32, mem::DeviceKind::kSsd));
  }
  return util::Status::OK();
}

util::Status LockFreeUpdater::SnapshotLayerState(int layer_index,
                                                 LayerState* out) {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  ANGEL_SPAN("updater", "snapshot_layer");
  Layer& layer = *layers_[layer_index];
  // The per-layer quiesce: while held, the updating thread cannot start or
  // finish this layer's master update, so params/slots/step are a
  // consistent cut. Everything else (other layers, the compute side, the
  // buffering thread) keeps running.
  util::MutexLock master_lock(layer.master_mutex);
  const bool on_ssd = layer.p32->device_index() ==
                      static_cast<int>(mem::DeviceKind::kSsd);
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(allocator_->Move(layer.p32, mem::DeviceKind::kCpu));
    for (Tensor* tensor : layer.slots) {
      ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, mem::DeviceKind::kCpu));
    }
  }
  ANGEL_RETURN_IF_ERROR(layer.p32->ReadFloats(&out->params));
  out->slots.clear();
  out->slots.resize(layer.slots.size());
  for (size_t s = 0; s < layer.slots.size(); ++s) {
    out->slots[s].name = layer.slot_layout[s].name;
    ANGEL_RETURN_IF_ERROR(
        layer.slots[s]->ReadFloats(&out->slots[s].values));
  }
  out->step = layer.step;
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(allocator_->Move(layer.p32, mem::DeviceKind::kSsd));
    for (Tensor* tensor : layer.slots) {
      ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, mem::DeviceKind::kSsd));
    }
  }
  return util::Status::OK();
}

util::Status LockFreeUpdater::ImportLayerState(int layer_index,
                                               const LayerState& state) {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  if (running_.load()) {
    return util::Status::FailedPrecondition(
        "Stop() the updater before importing state");
  }
  Layer& layer = *layers_[layer_index];
  if (state.params.size() != layer.count) {
    return util::Status::InvalidArgument("checkpoint state size mismatch");
  }
  if (state.slots.size() != layer.slot_layout.size()) {
    return util::Status::InvalidArgument(
        "checkpoint has " + std::to_string(state.slots.size()) +
        " optimizer slots but rule '" + optimizer_rule() + "' declares " +
        std::to_string(layer.slot_layout.size()));
  }
  for (size_t s = 0; s < state.slots.size(); ++s) {
    if (state.slots[s].name != layer.slot_layout[s].name ||
        state.slots[s].values.size() != layer.slot_layout[s].count) {
      return util::Status::InvalidArgument(
          "checkpoint slot '" + state.slots[s].name + "' (" +
          std::to_string(state.slots[s].values.size()) +
          " elements) does not match rule '" + optimizer_rule() +
          "' slot '" + layer.slot_layout[s].name + "' (" +
          std::to_string(layer.slot_layout[s].count) + " elements)");
    }
  }
  util::MutexLock master_lock(layer.master_mutex);
  const bool on_ssd = layer.p32->device_index() ==
                      static_cast<int>(mem::DeviceKind::kSsd);
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(allocator_->Move(layer.p32, mem::DeviceKind::kCpu));
    for (Tensor* tensor : layer.slots) {
      ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, mem::DeviceKind::kCpu));
    }
  }
  ANGEL_RETURN_IF_ERROR(layer.p32->WriteFloats(state.params));
  for (size_t s = 0; s < layer.slots.size(); ++s) {
    ANGEL_RETURN_IF_ERROR(layer.slots[s]->WriteFloats(state.slots[s].values));
  }
  layer.step = state.step;
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(allocator_->Move(layer.p32, mem::DeviceKind::kSsd));
    for (Tensor* tensor : layer.slots) {
      ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, mem::DeviceKind::kSsd));
    }
  }
  // Refresh the compute-side fp16 view and drop stale gradients.
  util::MutexLock lock(layer.buffer_mutex);
  ANGEL_RETURN_IF_ERROR(InstallParams(layer, state.params));
  ANGEL_RETURN_IF_ERROR(layer.buffered_grads->Clear());
  layer.pending_batches = 0;
  return util::Status::OK();
}

LockFreeUpdater::Stats LockFreeUpdater::Snapshot() const {
  Stats stats;
  stats.updates_applied = updates_applied_.load();
  stats.grad_batches_offloaded = grad_batches_offloaded_.load();
  stats.grad_batches_applied = grad_batches_applied_.load();
  stats.pending_grad_batches = pending_grad_batches();
  stats.backpressure_waits = backpressure_waits_.load();
  {
    util::MutexLock lock(staleness_mutex_);
    stats.staleness = staleness_;
  }
  return stats;
}

uint64_t LockFreeUpdater::pending_grad_batches() const {
  const uint64_t offloaded = grad_batches_offloaded_.load();
  const uint64_t applied = grad_batches_applied_.load();
  return offloaded > applied ? offloaded - applied : 0;
}

}  // namespace angelptm::core
