#ifndef ANGELPTM_CORE_ENGINE_H_
#define ANGELPTM_CORE_ENGINE_H_

#include <memory>
#include <vector>

#include "core/allocator.h"
#include "core/lockfree_updater.h"
#include "core/optimizer/optimizer.h"
#include "core/schedule.h"
#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "util/status.h"

namespace angelptm::core {

/// Configuration for one Engine instance (one training process / rank).
struct EngineOptions {
  mem::HierarchicalMemoryOptions memory;
  /// Update rule + hyper-parameters (core/optimizer/optimizer.h).
  OptimizerConfig optimizer;
  /// Enable the lock-free updating mechanism (Algorithm 2).
  bool lock_free = false;
  /// Tier holding the fp32 master states (kSsd for §6.5's extreme scale).
  mem::DeviceKind master_device = mem::DeviceKind::kCpu;
};

/// The training façade of Fig. 6 (`model = angelptm.initialize(model,
/// optimizer, config)`): callers register layers once, then drive steps with
/// the Use/Push protocol and the engine handles everything the paper's
/// runtime handles — staging fp16 working parameters into the fast tier,
/// tracing the first iteration's layer order (§5 Tracer), building the
/// Algorithm-1 schedule from that trace, prefetching asynchronously on later
/// iterations, evicting by next traced use, releasing working tensors after
/// their last traced use, and updating through the (optionally lock-free)
/// Adam. Later steps replay the trace with one cursor (the op count), so
/// each layer is staged at most once per step (DESIGN.md §12).
///
/// Step protocol, mirroring the forward/backward structure:
///
///   engine->BeginStep();
///   for l in 0..L-1:  params = engine->UseLayerParams(l); ... forward ...
///   for l in L-1..0:  params = engine->UseLayerParams(l); ... backward ...
///                     engine->PushGrads(l, grads);
///   engine->EndStep();
///
/// The first step runs in trace mode (on-demand staging); from the second
/// step on, parameter movements follow the unified schedule.
class Engine {
 public:
  [[nodiscard]] static util::Result<std::unique_ptr<Engine>> Create(
      const EngineOptions& options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a layer (its fp32 master states and fp16 buffers). Must be
  /// called before the first BeginStep.
  [[nodiscard]] util::Result<int> RegisterLayer(const std::vector<float>& initial_params);

  [[nodiscard]] util::Status BeginStep();
  /// Stores a layer's boundary activations on the hierarchical memory (as
  /// fp16, like Table 1's activation accounting): on the fast tier when
  /// room remains, spilling to the CPU tier otherwise. Call during forward;
  /// retrieve with FetchActivation during backward (§4.2's recompute flow
  /// keeps only these boundaries alive).
  [[nodiscard]] util::Status StashActivation(int layer,
                               const std::vector<float>& activations);
  /// Returns and releases a previously stashed activation.
  [[nodiscard]] util::Result<std::vector<float>> FetchActivation(int layer);
  /// Returns the layer's current fp16 working parameters (as fp32),
  /// resident on the fast tier. Each call is one access in the layer's
  /// life-time; call once per forward and once per backward.
  [[nodiscard]] util::Result<std::vector<float>> UseLayerParams(int layer);
  /// Offloads the layer's gradients (backward order); a moved-in vector
  /// reaches the updater uncopied. The layer's working tensor is released
  /// once its traced accesses are exhausted.
  [[nodiscard]] util::Status PushGrads(int layer, std::vector<float> grads);
  [[nodiscard]] util::Status EndStep();

  // --- Introspection ---
  /// The unified schedule (null until the traced first step completed).
  /// Page ids are dense: layer l's fp16 pages follow layer l-1's.
  const Schedule* schedule() const { return schedule_.get(); }
  LockFreeUpdater* updater() { return updater_.get(); }
  Allocator* allocator() { return allocator_.get(); }
  mem::HierarchicalMemory* memory() { return memory_.get(); }
  mem::CopyEngine* copy_engine() { return copy_engine_.get(); }

  int steps_completed() const { return steps_completed_; }
  /// Scheduled prefetches that finished before the compute needed them /
  /// accesses that had to wait or stage on demand. Every schedule-driven
  /// (post-warmup) use is counted exactly once as a hit or a wait:
  /// prefetch_hits() + prefetch_waits() == scheduled_uses().
  uint64_t prefetch_hits() const { return prefetch_hits_; }
  uint64_t prefetch_waits() const { return prefetch_waits_; }
  /// Post-warmup UseLayerParams calls (the denominator of the hit rate).
  uint64_t scheduled_uses() const { return scheduled_uses_; }
  /// Asynchronous prefetch moves that resolved with an error, each counted
  /// where its future is settled: at the layer's own use, in an eviction
  /// scan or at release. The layer stays CPU-resident and recovers through
  /// the on-demand path, so these are counted, not propagated.
  uint64_t prefetch_move_failures() const { return prefetch_move_failures_; }
  /// The warmup step's UseLayerParams layer order: Algorithm 1's input, and
  /// the trace every later step replays (DESIGN.md §12).
  const std::vector<int>& access_order() const { return access_order_; }

 private:
  explicit Engine(const EngineOptions& options);

  struct WorkingLayer {
    size_t count = 0;
    /// fp16 working tensor; non-null exactly while the layer is staged.
    Tensor* tensor = nullptr;
    std::vector<std::future<util::Status>> pending_moves;
    std::vector<int> use_ops;  // This layer's ops in the trace, ascending.
    int issue_trigger = -1;  // Earliest move trigger from the schedule.
    Tensor* activation_stash = nullptr;  // fp16 boundary activations.
  };

  /// Creates the layer's working tensor on the CPU tier and copies the
  /// current buffered fp16 parameters into it, bit for bit.
  [[nodiscard]] util::Status StageWorkingTensor(int layer);
  /// Moves the layer's working tensor to the GPU tier, evicting other
  /// staged layers back to CPU if the tier is full: farthest next traced
  /// use first (Belady), registration order during the warmup step.
  [[nodiscard]] util::Status MoveWithEviction(int layer);
  /// Resolves a layer's in-flight prefetch futures, counting (not
  /// propagating) failed moves — see prefetch_move_failures().
  void SettlePendingMoves(WorkingLayer& layer);
  /// Stages and starts moving every layer whose scheduled trigger has been
  /// reached and that still has a traced use this step.
  [[nodiscard]] util::Status IssueReadyPrefetches();
  [[nodiscard]] util::Status ReleaseWorkingTensor(int layer);
  [[nodiscard]] util::Status BuildScheduleFromTrace();

  EngineOptions options_;
  std::unique_ptr<mem::HierarchicalMemory> memory_;
  std::unique_ptr<Allocator> allocator_;
  std::unique_ptr<mem::CopyEngine> copy_engine_;
  std::unique_ptr<LockFreeUpdater> updater_;
  std::unique_ptr<Schedule> schedule_;
  std::vector<int> access_order_;
  std::vector<WorkingLayer> layers_;

  bool step_active_ = false;
  int steps_completed_ = 0;
  int current_op_ = 0;  // Uses so far this step: the trace cursor.
  uint64_t prefetch_hits_ = 0;
  uint64_t prefetch_waits_ = 0;
  uint64_t scheduled_uses_ = 0;
  uint64_t prefetch_move_failures_ = 0;
};

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_ENGINE_H_
