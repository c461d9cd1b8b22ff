#ifndef ANGELPTM_CORE_LOCKFREE_UPDATER_H_
#define ANGELPTM_CORE_LOCKFREE_UPDATER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/allocator.h"
#include "core/optimizer/optimizer.h"
#include "mem/device.h"
#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/seqlock.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::core {

/// The Lock-Free Updating Mechanism of §4.3 (Algorithm 2), implemented with
/// real threads over the page-based memory subsystem:
///
///  - The *compute* side (the training loop, standing in for the GPUs)
///    fetches buffered fp16 parameters (p'16) and offloads fp16 gradients,
///    never blocking on the optimizer.
///  - The *buffering thread* owns the two fp16 CPU buffers: it accumulates
///    offloaded gradients into g'16 and installs freshly updated parameters
///    into p'16.
///  - The *updating thread* walks layers in reverse, fetches the fp32
///    master states (from the SSD tier when configured — real file I/O),
///    applies the configured update rule (Options.optimizer — Adam by
///    default; see core/optimizer/optimizer.h) against the accumulated
///    gradients, hands the result to the buffering thread, and writes the
///    states back. It sleeps on a condition variable between work batches
///    and is woken by OffloadGrads / the buffering thread.
///
/// Deviation from the paper's pseudocode, documented: Algorithm 2 clears
/// g'16 when the buffering thread *receives* the updated parameters, which
/// drops gradients that arrive during the update window. We snapshot-and-
/// clear g'16 atomically when the update *starts*, preserving every
/// gradient while keeping the same staleness behaviour.
///
/// Second documented deviation — the staleness valve: Algorithm 2's compute
/// side never waits for the optimizer, which is the right throughput call
/// when the updating thread has its own core. On an oversubscribed host,
/// though, a never-blocking compute loop can run unboundedly ahead (the
/// mutex contention the seqlock redesign removed used to throttle it by
/// accident), and folding hundreds of stale batches into one update
/// diverges training. OffloadGrads therefore blocks once a single layer has
/// Options.max_pending_batches_per_layer gradient batches in flight, making
/// the "bounded staleness" this class trades on an actual bound; the valve
/// is far above what a healthy updater accumulates, so it only engages when
/// the updater is starved (observable via Stats.backpressure_waits).
///
/// The condvar wakeup pairs with a small coalescing window
/// (Options.updater_coalesce_us): waking on the *first* gradient of a
/// backward pass would apply it alone and then re-update per layer per
/// gradient, which collapses the mechanism into a slower synchronous
/// optimizer (every update averages one batch, so none of the gradient
/// noise reduction that batching buys). Waiting a few tens of
/// microseconds after the wakeup lets the rest of the pass's gradients
/// land in the same sweep, restoring the multi-batch updates the paper's
/// GPU/CPU speed gap produces naturally — with zero CPU burned while
/// idle, unlike the fixed-period poll this replaced.
///
/// Read-mostly hot paths are lockless (DESIGN.md §13): FetchParams reads a
/// seqlock-published fp16 mirror of p'16 (no mutex, retry on the rare
/// overlapping install), and status() reads the write-once poison status
/// published by a release store. The mutexes remain on the *write* side
/// only, where they already serialized mutation.
///
/// The mechanism trades bounded staleness for throughput; staleness is
/// observable via Snapshot().pending_grad_batches. §6.5 shows convergence is
/// not harmed — reproduced by bench/table6_ssd_lockfree.
///
/// Failure semantics: the first unrecoverable error on either background
/// thread (an SSD I/O failure that survives the SsdTier retry policy, a
/// buffer install/accumulate failure) *poisons* the updater — the thread
/// stops, status() turns non-OK, and every subsequent OffloadGrads /
/// FetchParams / DrainUpdates call fails fast with that status instead of
/// silently training against a dead optimizer. Poisoning is terminal: the
/// recovery path is checkpoint restore into a fresh updater (§3.1).
class LockFreeUpdater {
 public:
  struct Options {
    /// Update rule + hyper-parameters; resolved through Optimizer::Create
    /// in the constructor (an unknown rule poisons the updater, so the
    /// first AddLayer reports it).
    OptimizerConfig optimizer;
    /// Where fp32 master parameters/moments live between updates.
    mem::DeviceKind master_device = mem::DeviceKind::kCpu;
    /// Staleness valve (see the class comment): OffloadGrads blocks while
    /// the target layer already has this many batches offloaded but not yet
    /// folded into the master parameters. 0 disables the valve.
    size_t max_pending_batches_per_layer = 8;
    /// Coalescing window: after an idle condvar wakeup, the updating thread
    /// waits this long before sweeping, so the rest of the backward pass's
    /// gradients land in the same update instead of each triggering its
    /// own single-batch update (see the class comment). 0 disables
    /// coalescing (sweep immediately on wakeup).
    uint64_t updater_coalesce_us = 50;
  };

  LockFreeUpdater(Allocator* allocator, const Options& options);
  ~LockFreeUpdater();

  LockFreeUpdater(const LockFreeUpdater&) = delete;
  LockFreeUpdater& operator=(const LockFreeUpdater&) = delete;

  /// Registers a layer, allocating its fp32 master states (params plus the
  /// optimizer's declared slot layout) on the master device and its fp16
  /// buffers on the CPU tier. Returns the layer index.
  [[nodiscard]] util::Result<int> AddLayer(
      const std::vector<float>& initial_params);

  int num_layers() const { return static_cast<int>(layers_.size()); }

  /// Registry key of the active update rule ("adam", ...).
  const std::string& optimizer_rule() const;

  // --- Compute-side interface (Algorithm 2 lines 18-24) ---

  /// Reads the buffered fp16 parameters, cast to fp32 (line 20). Lockless:
  /// the read comes from the layer's seqlock mirror, so it never contends
  /// with the buffering thread's install.
  [[nodiscard]] util::Status FetchParams(int layer,
                                         std::vector<float>* out) const;
  /// Copies the buffered fp16 parameters bit for bit into `out`, an fp16
  /// tensor of the layer's size on a memory tier: the engine's staging,
  /// with no fp32 round trip. Lockless, like the fp32 form.
  [[nodiscard]] util::Status FetchParams(int layer, Tensor* out) const;

  /// Publication version of a layer's buffered parameters (bumps by 2 per
  /// install — the seqlock sequence word). Lockless; lets the compute side
  /// skip a refetch when nothing was installed since the last step.
  [[nodiscard]] util::Result<uint64_t> ParamsVersion(int layer) const;

  /// Accumulates gradients into the layer's fp16 buffer and marks it dirty
  /// (lines 24 / 14-15). Never blocks on the updating thread unless the
  /// layer is at the staleness valve's bound; wakes it.
  [[nodiscard]] util::Status OffloadGrads(int layer,
                                          const std::vector<float>& grads)
      ANGEL_EXCLUDES(queue_mutex_, work_mutex_, backpressure_mutex_);

  // --- Control ---

  /// Spawns the buffering and updating threads (asynchronous mode).
  void Start();
  /// Joins the threads, the updating thread first; the buffering thread
  /// then applies every install still queued, in order, before it exits.
  /// Pending gradients stay buffered.
  void Stop() ANGEL_EXCLUDES(queue_mutex_, work_mutex_);
  bool running() const { return running_.load(); }

  /// Synchronous baseline: applies one full update pass inline (every dirty
  /// layer), blocking the caller. Must not run concurrently with Start().
  [[nodiscard]] util::Status UpdateOnce();

  /// Blocks until every gradient offloaded so far has been applied, the
  /// deadline passes (DeadlineExceeded), or the updater is poisoned (the
  /// poison status). Never spins forever: a dead updating thread surfaces
  /// as an error within the deadline.
  [[nodiscard]] util::Status DrainUpdates(
      std::chrono::milliseconds deadline = std::chrono::milliseconds(60000))
      ANGEL_EXCLUDES(queue_mutex_);

  /// OK while the updater is healthy; the first unrecoverable background
  /// error afterwards. A non-OK status is terminal. Lockless: the status
  /// object is written once (under poison_mutex_) before the release store
  /// of the poisoned_ flag publishes it, and never modified again.
  [[nodiscard]] util::Status status() const;

  /// Reads the fp32 master parameters of a layer (test/checkpoint access;
  /// moves them memory-side if they are on SSD and back).
  [[nodiscard]] util::Status ReadMasterParams(int layer,
                                              std::vector<float>* out);

  /// Full optimizer state of one layer, for checkpointing (§3.1 failure
  /// recovery). Slots appear in the optimizer's SlotLayout order with their
  /// declared names — the checkpoint v3 wire format serializes exactly this.
  struct LayerState {
    struct Slot {
      std::string name;
      std::vector<float> values;
    };
    std::vector<float> params;
    std::vector<Slot> slots;
    long step = 0;
  };
  /// Snapshots a layer's fp32 master state. Safe on a *running* updater: it
  /// briefly quiesces that one layer (the updating thread's per-layer
  /// master mutex) while the copy is taken, so training never stops
  /// globally. Each layer's state is internally consistent (params/slots/
  /// step from the same update count); different layers may be a few
  /// updates apart — which the per-layer step records, so a restore is
  /// still exact. This is the one snapshot API (the former stopped-only
  /// ExportLayerState was retired in its favor).
  [[nodiscard]] util::Status SnapshotLayerState(int layer, LayerState* out);
  /// Restores a layer's fp32 master state and refreshes its fp16 buffers.
  [[nodiscard]] util::Status ImportLayerState(int layer,
                                              const LayerState& state);

  // --- Introspection ---

  /// Structured statistics of this updater instance. The same series are
  /// published process-wide through the obs:: registry ("updater/*").
  struct Stats {
    uint64_t updates_applied = 0;
    uint64_t grad_batches_offloaded = 0;
    uint64_t grad_batches_applied = 0;
    /// Gradient batches not yet folded into the master parameters — the
    /// staleness the mechanism trades for throughput.
    uint64_t pending_grad_batches = 0;
    /// OffloadGrads calls that hit the staleness valve and had to wait for
    /// the updating thread to catch up (0 on a healthy, unstarved updater).
    uint64_t backpressure_waits = 0;
    /// Distribution of gradient batches folded per update (1 = fully
    /// fresh; larger = the compute side ran ahead).
    util::Histogram staleness;
  };

  /// Point-in-time copy of this instance's statistics.
  Stats Snapshot() const;

 private:
  struct Layer {
    size_t count = 0;
    Tensor* p32 = nullptr;
    /// Master-state tensors, one per slot_layout entry (Adam: m, v; sgdm:
    /// m; adafactor: row, col). Allocated per the optimizer's SlotLayout.
    std::vector<Tensor*> slots;
    std::vector<SlotSpec> slot_layout;
    /// Algorithm 2's CPU buffers, as fp16 tensors on the CPU tier. The
    /// pointers are set once in AddLayer; the *bytes* they reach are what
    /// buffer_mutex guards, a method-call-level relationship (ReadFloats/
    /// WriteFloats) the analysis cannot see through Tensor's interface.
    Tensor* buffered_params = nullptr;  // p'16
    Tensor* buffered_grads = nullptr;   // g'16
    mutable util::Mutex buffer_mutex{"updater.buffer",
                                     util::lockrank::kUpdaterBuffer};
    uint64_t pending_batches ANGEL_GUARDED_BY(buffer_mutex) = 0;
    /// Lockless read mirror of p'16: the same fp16 bits the buffer holds,
    /// published via seqlock. Writers (install/import, both under
    /// buffer_mutex) are serialized; FetchParams reads with no lock.
    util::SeqLockBuffer param_mirror;
    /// Serializes access to the fp32 master states (p32 and the slots,
    /// including their tier moves) between the updating path and concurrent
    /// checkpoint snapshots / master reads. Held only for the master-state
    /// section of one layer's update — the per-layer quiesce window.
    mutable util::Mutex master_mutex{"updater.master",
                                     util::lockrank::kUpdaterMaster};
    long step ANGEL_GUARDED_BY(master_mutex) = 0;
  };

  /// Applies one optimizer update to layer `layer_index` if it has pending
  /// gradients. Returns true if an update was applied. The fresh parameters
  /// are queued for the buffering thread when `queue_install` (the updating
  /// thread's sweep), else installed inline (UpdateOnce): the route comes
  /// from the caller, never from running_, which Stop() can flip mid-update
  /// and so land an inline install ahead of a queued older one.
  [[nodiscard]] util::Result<bool> UpdateLayer(int layer_index,
                                               bool queue_install)
      ANGEL_EXCLUDES(queue_mutex_, staleness_mutex_, backpressure_mutex_);
  void UpdatingThreadLoop() ANGEL_EXCLUDES(work_mutex_);
  void BufferingThreadLoop() ANGEL_EXCLUDES(queue_mutex_, work_mutex_);
  /// Records the first unrecoverable error; later calls keep the original.
  void Poison(const util::Status& status)
      ANGEL_EXCLUDES(poison_mutex_, work_mutex_);
  /// Bumps the work epoch and wakes the updating thread.
  void SignalWork() ANGEL_EXCLUDES(work_mutex_);
  /// Installs `values` as the layer's buffered parameters: one conversion,
  /// straight into the p'16 pages, whose fp16 bits the seqlock mirror then
  /// publishes. Caller holds layer.buffer_mutex, which serializes mirror
  /// writers.
  [[nodiscard]] static util::Status InstallParams(
      Layer& layer, const std::vector<float>& values)
      ANGEL_REQUIRES(layer.buffer_mutex);
  /// Gradient batches offloaded but not yet applied.
  uint64_t pending_grad_batches() const;

  Allocator* allocator_;
  Options options_;
  std::unique_ptr<Optimizer> optimizer_;
  std::vector<std::unique_ptr<Layer>> layers_;

  std::atomic<bool> running_{false};
  std::thread updating_thread_;
  std::thread buffering_thread_;

  /// Queue feeding the buffering thread: gradients from the compute side
  /// and updated parameters from the updating thread.
  struct BufferTask {
    int layer;
    bool is_params;            // true: install params; false: accumulate.
    std::vector<float> data;   // fp32 values (cast to fp16 on apply).
  };
  mutable util::Mutex queue_mutex_{"updater.queue",
                                   util::lockrank::kUpdaterQueue};
  util::CondVar queue_cv_;
  std::deque<BufferTask> buffer_queue_ ANGEL_GUARDED_BY(queue_mutex_);
  /// True while no install can be queued: until Start(), and again once
  /// Stop() has joined the updating thread. The buffering thread exits only
  /// when this holds and the queue is empty, so no install is left behind.
  bool installs_closed_ ANGEL_GUARDED_BY(queue_mutex_) = true;

  /// Wakeup channel for the updating thread (replaces the old idle-sleep
  /// poll): the epoch counts SignalWork calls, so a signal that lands
  /// mid-scan is observed as a changed epoch instead of being lost.
  mutable util::Mutex work_mutex_{"updater.work",
                                  util::lockrank::kUpdaterWork};
  util::CondVar work_cv_;
  uint64_t work_epoch_ ANGEL_GUARDED_BY(work_mutex_) = 0;

  /// Staleness valve state: per-layer batches offloaded (queued or
  /// accumulated) but not yet taken by UpdateLayer. OffloadGrads waits on
  /// the condvar while its layer sits at the Options bound; UpdateLayer
  /// notifies after taking a layer's batches.
  mutable util::Mutex backpressure_mutex_{
      "updater.backpressure", util::lockrank::kUpdaterBackpressure};
  util::CondVar backpressure_cv_;
  std::vector<uint64_t> inflight_batches_
      ANGEL_GUARDED_BY(backpressure_mutex_);
  std::atomic<uint64_t> backpressure_waits_{0};

  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> grad_batches_offloaded_{0};
  std::atomic<uint64_t> grad_batches_applied_{0};

  /// Terminal error state. `poisoned_` is the lock-free fast-path flag;
  /// poison_status_ is written exactly once, under poison_mutex_ (which
  /// serializes racing Poison calls), *before* the release store to
  /// poisoned_ — so any reader that observes poisoned_ true (acquire) may
  /// read poison_status_ with no lock (DESIGN.md §13).
  std::atomic<bool> poisoned_{false};
  mutable util::Mutex poison_mutex_{"updater.poison",
                                    util::lockrank::kUpdaterPoison};
  util::Status poison_status_;

  mutable util::Mutex staleness_mutex_{"updater.staleness",
                                       util::lockrank::kUpdaterStaleness};
  util::Histogram staleness_ ANGEL_GUARDED_BY(staleness_mutex_);

  // Process-wide series (obs registry handles; set once in the ctor).
  obs::Counter* metric_updates_applied_ = nullptr;
  obs::Counter* metric_grad_batches_offloaded_ = nullptr;
  obs::Gauge* metric_pending_batches_ = nullptr;
  obs::Histogram* metric_staleness_ = nullptr;
};

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_LOCKFREE_UPDATER_H_
