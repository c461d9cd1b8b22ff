#include "core/lockfree_updater.h"

#include <algorithm>
#include <chrono>

#include "core/checkpoint.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::core {
namespace {

/// Seqlock payload words holding `count` fp16 values: the payload bytes
/// are the fp16 array's bytes, two halves per uint32_t word.
size_t HalfWords(size_t count) { return (count + 1) / 2; }

/// Elements converted per stack chunk between fp32 and fp16: p'16 reads
/// and installs, and g'16 accumulation.
constexpr size_t kConvertChunk = 2048;

/// How long the updating thread waits after an idle wakeup before it
/// sweeps (see the class comment).
constexpr std::chrono::microseconds kCoalesceWindow(50);

}  // namespace

LockFreeUpdater::LockFreeUpdater(Allocator* allocator, const Options& options)
    : allocator_(allocator), options_(options) {
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
    for (Tensor* tensor :
         {layer->p32, layer->buffered_grads, layer->spare_grads}) {
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
  // The masters share one group (grouped tensors share tail pages and
  // therefore co-migrate); g'16 stays on the CPU tier while they move to
  // the master device, so it gets pages of its own.
  const uint64_t group = 1000 + 2 * layers_.size();

  // Master states start on the CPU tier so they can be initialized, then
  // migrate to the configured master device (a real file write for SSD).
  ANGEL_ASSIGN_OR_RETURN(
      layer->p32,
      allocator_->Allocate(shape, DType::kFp32, mem::DeviceKind::kCpu, group));
  for (const SlotSpec& spec : layer->slot_layout) {
    ANGEL_ASSIGN_OR_RETURN(
        Tensor * slot,
        allocator_->Allocate({spec.count}, DType::kFp32,
                             mem::DeviceKind::kCpu, group));
    layer->slots.push_back(slot);
  }
  // g'16 and its spare (see Layer::buffered_grads).
  ANGEL_ASSIGN_OR_RETURN(
      Tensor * buffered_grads,
      allocator_->Allocate(shape, DType::kFp16, mem::DeviceKind::kCpu));
  ANGEL_ASSIGN_OR_RETURN(
      Tensor * spare_grads,
      allocator_->Allocate(shape, DType::kFp16, mem::DeviceKind::kCpu));

  ANGEL_RETURN_IF_ERROR(layer->p32->WriteFloats(initial_params));
  for (Tensor* slot : layer->slots) ANGEL_RETURN_IF_ERROR(slot->Clear());
  ANGEL_RETURN_IF_ERROR(buffered_grads->Clear());
  ANGEL_RETURN_IF_ERROR(spare_grads->Clear());
  layer->buffered_params.Reset(HalfWords(layer->count));
  {
    util::MutexLock lock(layer->buffer_mutex);
    layer->buffered_grads = buffered_grads;
    layer->spare_grads = spare_grads;
    ANGEL_RETURN_IF_ERROR(InstallParams(*layer));
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

util::Status LockFreeUpdater::InstallParams(Layer& layer) {
  // The reverse of the fp32 FetchParams: convert chunk by chunk on the
  // stack, straight from p32's spans into p'16's seqlock payload. The spans
  // are indexed first, so nothing can fail inside the write.
  SpanIndex params;
  ANGEL_RETURN_IF_ERROR(params.Build(*layer.p32));
  const size_t count = layer.count;
  layer.buffered_params.WriteWith([&params, count](auto store) {
    uint16_t chunk[kConvertChunk];
    for (size_t e = 0; e < count;) {
      size_t n = std::min(kConvertChunk, count - e);
      const float* src = params.At<const float>(e, &n);
      FloatsToHalves(src, chunk, n);
      store(2 * e, chunk, 2 * n);
      e += n;
    }
  });
  return util::Status::OK();
}

util::Status LockFreeUpdater::AccumulateGrads(
    Layer& layer, const std::vector<float>& grads) {
  SpanIndex buffered;
  ANGEL_RETURN_IF_ERROR(buffered.Build(*layer.buffered_grads));
  float chunk[kConvertChunk];
  for (size_t e = 0; e < layer.count;) {
    size_t n = std::min(kConvertChunk, layer.count - e);
    uint16_t* halves = buffered.At<uint16_t>(e, &n);
    HalvesToFloats(halves, chunk, n);
    for (size_t i = 0; i < n; ++i) chunk[i] += grads[e + i];
    FloatsToHalves(chunk, halves, n);
    e += n;
  }
  return util::Status::OK();
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
  // converted chunk by chunk straight out of p'16.
  out->resize(layer.count);
  float* values = out->data();
  const size_t count = layer.count;
  layer.buffered_params.ReadWith([values, count](auto load) {
    uint16_t chunk[kConvertChunk];
    for (size_t i = 0; i < count; i += kConvertChunk) {
      const size_t n = std::min(kConvertChunk, count - i);
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
  layer.buffered_params.ReadWith([out, &status](auto load) {
    status = out->ForEachSpan(
        [&load](std::byte* span, size_t bytes, size_t offset) {
          load(offset, span, bytes);
          return util::Status::OK();
        });
  });
  return status;
}

util::Status LockFreeUpdater::OffloadGrads(int layer_index,
                                           std::vector<float> grads) {
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
    {
      util::MutexLock lock(queue_mutex_);
      buffer_queue_.push_back(BufferTask{layer_index, std::move(grads)});
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
  Layer& layer = *layers_[layer_index];
  util::MutexLock lock(layer.buffer_mutex);
  ANGEL_RETURN_IF_ERROR(AccumulateGrads(layer, grads));
  layer.pending_batches += 1;
  return util::Status::OK();
}

void LockFreeUpdater::Start() {
  if (running_.exchange(true)) return;
  {
    util::MutexLock lock(queue_mutex_);
    queue_closed_ = false;
  }
  buffering_thread_ = std::thread([this] { BufferingThreadLoop(); });
  updating_thread_ = std::thread([this] { UpdatingThreadLoop(); });
}

void LockFreeUpdater::Stop() {
  if (!running_.exchange(false)) return;
  {
    util::MutexLock lock(queue_mutex_);
    queue_closed_ = true;
  }
  queue_cv_.NotifyAll();
  backpressure_cv_.NotifyAll();
  SignalWork();
  if (updating_thread_.joinable()) updating_thread_.join();
  if (buffering_thread_.joinable()) buffering_thread_.join();
}

void LockFreeUpdater::SignalWork() {
  {
    util::MutexLock lock(work_mutex_);
    work_epoch_ += 1;
  }
  work_cv_.NotifyAll();
}

util::Result<bool> LockFreeUpdater::UpdateLayer(int layer_index) {
  Layer* layer = layers_[layer_index].get();
  // The master mutex quiesces this one layer against concurrent checkpoint
  // cuts and master reads, and makes this update the only user of the
  // layer's spare g'16 until it is cleared again.
  util::MutexLock master_lock(layer->master_mutex);
  // Take the accumulated gradients by swapping g'16 for the cleared spare
  // (see class comment): an O(1) hold of the buffer mutex.
  Tensor* grads = nullptr;
  uint64_t batches_taken = 0;
  {
    util::MutexLock lock(layer->buffer_mutex);
    if (layer->pending_batches == 0) return false;
    std::swap(layer->buffered_grads, layer->spare_grads);
    grads = layer->spare_grads;
    batches_taken = layer->pending_batches;
    layer->pending_batches = 0;
  }
  ANGEL_SPAN("updater", "update_layer");
  {
    // Release the staleness valve: these batches are no longer in flight.
    // Saturating, because batches offloaded in synchronous mode (no valve
    // accounting) may be taken here after a Stop().
    util::MutexLock lock(backpressure_mutex_);
    uint64_t& inflight = inflight_batches_[size_t(layer_index)];
    inflight -= std::min(inflight, batches_taken);
  }
  backpressure_cv_.NotifyAll();

  // Fetch fp32 states from the master device (Algorithm 2 line 4; a real
  // SSD read when the master tier is the SSD), update them (line 5),
  // install p'16 (line 6, on this thread) and write them back (line 7).
  const bool on_ssd = options_.master_device == mem::DeviceKind::kSsd;
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(MoveMasters(*layer, mem::DeviceKind::kCpu));
  }
  layer->step += 1;
  // The rule's gradient is g'16 converted and averaged over the batches.
  const float scale =
      batches_taken > 1 ? 1.0f / float(batches_taken) : 1.0f;
  SpanIndex grad_spans;
  ANGEL_RETURN_IF_ERROR(grad_spans.Build(*grads));
  ANGEL_RETURN_IF_ERROR(ApplyRule(
      *optimizer_, layer->p32, layer->slots, layer->step,
      [&grad_spans, scale](size_t lo, size_t n, float* out) {
        for (size_t done = 0; done < n;) {
          size_t k = n - done;
          HalvesToFloats(grad_spans.At<const uint16_t>(lo + done, &k),
                         out + done, k);
          done += k;
        }
        if (scale != 1.0f) {
          for (size_t i = 0; i < n; ++i) out[i] *= scale;
        }
      }));
  // A failed install leaves the compute side reading stale (but
  // consistent) parameters forever; that is silent divergence, so it fails
  // the update, which poisons the updater.
  ANGEL_RETURN_IF_ERROR(
      util::FaultInjector::Instance().Check("updater.buffer_install"));
  {
    util::MutexLock lock(layer->buffer_mutex);
    ANGEL_RETURN_IF_ERROR(InstallParams(*layer));
  }
  ANGEL_RETURN_IF_ERROR(grads->Clear());
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(MoveMasters(*layer, mem::DeviceKind::kSsd));
  }
  updates_applied_.fetch_add(1);
  grad_batches_applied_.fetch_add(batches_taken);
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
      auto updated = UpdateLayer(i);
      if (!updated.ok()) {
        // An error here (e.g. an SSD failure that survived its retries)
        // is unrecoverable for this thread: poison the updater so
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
      if (woken_by_work && running_.load() &&
          !poisoned_.load(std::memory_order_acquire)) {
        // Coalescing window (see the class comment): the signal was the
        // first gradient of a backward pass; give the rest of the pass a
        // moment to land so the sweep folds them into one update instead
        // of degenerating into per-gradient single-batch updates.
        std::this_thread::sleep_for(kCoalesceWindow);
      }
    }
  }
}

void LockFreeUpdater::BufferingThreadLoop() {
  for (;;) {
    BufferTask task;
    {
      util::MutexLock lock(queue_mutex_);
      while (buffer_queue_.empty() && !queue_closed_ &&
             !poisoned_.load(std::memory_order_acquire)) {
        queue_cv_.Wait(queue_mutex_);
      }
      if (poisoned_.load(std::memory_order_acquire)) return;
      if (buffer_queue_.empty()) return;  // Stop() closed the queue.
      task = std::move(buffer_queue_.front());
      buffer_queue_.pop_front();
    }
    Layer& layer = *layers_[task.layer];
    ANGEL_SPAN("updater", "buffer_accumulate");
    {
      // Accumulate into g'16 (line 15).
      util::MutexLock lock(layer.buffer_mutex);
      util::Status status =
          util::FaultInjector::Instance().Check("updater.buffer_accumulate");
      if (status.ok()) status = AccumulateGrads(layer, task.grads);
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
    const util::Status layer_status = UpdateLayer(i).status();
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
  out->resize(layer.count);
  auto* dst = reinterpret_cast<std::byte*>(out->data());
  mem::SsdTier* ssd = allocator_->memory()->ssd();
  for (const mem::Page* page : layer.p32->pages()) {
    ANGEL_ASSIGN_OR_RETURN(const MasterSpan span, SpanOf(*layer.p32, *page));
    ANGEL_RETURN_IF_ERROR(ReadMasterSpan(ssd, span, dst));
    dst += span.bytes;
  }
  return util::Status::OK();
}

util::Status LockFreeUpdater::CutLayer(int layer_index, MasterCut* out) {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  ANGEL_SPAN("updater", "cut_layer");
  Layer& layer = *layers_[layer_index];
  // The per-layer quiesce: while held, the updating thread cannot start or
  // finish this layer's master update, so params/slots/step are a
  // consistent cut. Everything else (other layers, the compute side, the
  // buffering thread) keeps running.
  util::MutexLock master_lock(layer.master_mutex);
  ANGEL_RETURN_IF_ERROR(CutMasters(MasterTensors(layer), layer.slot_layout,
                                   allocator_->memory()->ssd(), out));
  out->step = layer.step;
  return util::Status::OK();
}

std::vector<Tensor*> LockFreeUpdater::MasterTensors(const Layer& layer) {
  std::vector<Tensor*> tensors = {layer.p32};
  tensors.insert(tensors.end(), layer.slots.begin(), layer.slots.end());
  return tensors;
}

util::Status LockFreeUpdater::MoveMasters(Layer& layer,
                                          mem::DeviceKind target) {
  const std::vector<Tensor*> tensors = MasterTensors(layer);
  mem::SsdTier* ssd = allocator_->memory()->ssd();
  if (target != mem::DeviceKind::kSsd && ssd != nullptr) {
    // The frames the layer occupies; its next generation needs as many.
    std::vector<uint64_t> frames;
    for (const Tensor* tensor : tensors) {
      for (const mem::Page* page : tensor->pages()) {
        if (page->device() == mem::DeviceKind::kSsd) {
          frames.push_back(page->ssd_offset());
        }
      }
    }
    std::sort(frames.begin(), frames.end());
    frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
    if (!frames.empty()) {
      ssd->WaitForUnpin(frames, frames.size(),
                        [this] { pin_waits_.fetch_add(1); });
    }
  }
  for (Tensor* tensor : tensors) {
    ANGEL_RETURN_IF_ERROR(allocator_->Move(tensor, target));
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
    ANGEL_RETURN_IF_ERROR(MoveMasters(layer, mem::DeviceKind::kCpu));
  }
  ANGEL_RETURN_IF_ERROR(layer.p32->WriteFloats(state.params));
  for (size_t s = 0; s < layer.slots.size(); ++s) {
    ANGEL_RETURN_IF_ERROR(layer.slots[s]->WriteFloats(state.slots[s].values));
  }
  layer.step = state.step;
  {
    // Refresh the compute-side fp16 view and drop stale gradients.
    util::MutexLock lock(layer.buffer_mutex);
    ANGEL_RETURN_IF_ERROR(InstallParams(layer));
    ANGEL_RETURN_IF_ERROR(layer.buffered_grads->Clear());
    ANGEL_RETURN_IF_ERROR(layer.spare_grads->Clear());
    layer.pending_batches = 0;
  }
  if (on_ssd) {
    ANGEL_RETURN_IF_ERROR(MoveMasters(layer, mem::DeviceKind::kSsd));
  }
  return util::Status::OK();
}

LockFreeUpdater::Stats LockFreeUpdater::Snapshot() const {
  Stats stats;
  stats.updates_applied = updates_applied_.load();
  stats.grad_batches_offloaded = grad_batches_offloaded_.load();
  stats.grad_batches_applied = grad_batches_applied_.load();
  stats.pending_grad_batches = pending_grad_batches();
  stats.backpressure_waits = backpressure_waits_.load();
  stats.pin_waits = pin_waits_.load();
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
