#ifndef ANGELPTM_TRAIN_TRAINER_H_
#define ANGELPTM_TRAIN_TRAINER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/checkpoint_manager.h"
#include "core/engine.h"
#include "core/lockfree_updater.h"
#include "core/optimizer/optimizer.h"
#include "mem/copy_engine.h"
#include "obs/metrics.h"
#include "train/dataset.h"
#include "train/layered_model.h"
#include "train/loss_scaler.h"
#include "util/random.h"
#include "util/status.h"

namespace angelptm::train {

struct EngineTrainerOptions;  // train/engine_trainer.h

/// Numeric precision of the compute path. The paper trains "storing the
/// model states in FP32 while computing in BF16" (§6.1); kBf16 rounds the
/// fetched parameters and every layer boundary through bfloat16, emulating
/// tensor-core arithmetic while the masters stay fp32.
enum class ComputePrecision { kFp32, kBf16 };

/// The training-loop options both step backends share (TrainerOptions for
/// the direct backend, EngineTrainerOptions for the paged one).
struct TrainLoopOptions {
  size_t batch_size = 32;
  uint64_t seed = 1234;
  /// Upper bound on the end-of-training drain in lock-free mode; a dead or
  /// wedged updater surfaces as DeadlineExceeded/IoError instead of a hang.
  int drain_deadline_ms = 60000;

  // --- Fault tolerance (§3.1 failure recovery; DESIGN.md §9) ---
  /// Cut a checkpoint every N completed steps (0 disables). Saves go
  /// through CheckpointManager: atomic, checksummed, rotated, cut through
  /// the per-layer quiesce so lock-free training never pauses, and written
  /// by a background writer while training continues.
  int checkpoint_every_n_steps = 0;
  /// Where the rotated checkpoints live. Required when checkpointing or
  /// auto-recovery is on.
  std::string checkpoint_dir;
  int checkpoint_keep_last = 3;
  /// When > 0, Train() absorbs updater poisonings: it tears the dead state
  /// down (the direct backend's updater, or the paged backend's whole
  /// Engine), rebuilds it from the latest valid checkpoint (exact resume:
  /// step counter, RNG cursor, loss-scaler schedule), and continues — up to
  /// this many times per Trainer before the error propagates. 0 = propagate
  /// the first poisoning.
  int max_recoveries = 0;
};

/// The direct backend: the updater lives on the caller's allocator and each
/// step reads and writes its fp16 buffers directly.
struct TrainerOptions : TrainLoopOptions {
  /// Update rule + hyper-parameters (core/optimizer/optimizer.h). The
  /// default is Adam with the historic defaults.
  core::OptimizerConfig optimizer;
  ComputePrecision compute_precision = ComputePrecision::kFp32;
  /// false: one synchronous optimizer pass per step (the classical flow).
  /// true: Algorithm 2 — updater threads run concurrently; steps never wait.
  bool lock_free = false;
  /// Where fp32 master states live (kSsd exercises real file I/O).
  mem::DeviceKind master_device = mem::DeviceKind::kCpu;
  /// Micro-batch passes per optimizer update: gradients accumulate in the
  /// fp16 g'16 buffers (the updater averages them), the optimizer runs once
  /// per `grad_accumulation` steps. Synchronous mode only; lock-free mode
  /// paces itself.
  int grad_accumulation = 1;
  /// Dynamic loss scaling (§2.1 mixed precision): gradients survive the
  /// fp16 buffer cast; overflowed steps are skipped with scale backoff.
  bool use_loss_scaling = false;
  LossScaler::Options loss_scaler;
};

/// Structured telemetry nested in every TrainReport: per-phase step-time
/// distributions for this run plus snapshots of every stats-bearing
/// subsystem the run touched (each taken via that class's Snapshot()).
struct TelemetrySnapshot {
  /// Wall time per training-step phase, microseconds (this run only).
  obs::HistogramData fwd_us;
  obs::HistogramData bwd_us;
  obs::HistogramData opt_us;
  /// Peak staleness observed across the run (lock-free mode).
  uint64_t max_pending_batches = 0;
  core::LockFreeUpdater::Stats updater;
  mem::MemorySnapshot memory;
  /// Meaningful only when has_ssd is set.
  mem::SsdTier::Stats ssd;
  bool has_ssd = false;
  /// Meaningful only when has_copy_engine is set (paged backend).
  mem::CopyEngine::Stats copy;
  bool has_copy_engine = false;
  /// Automatic checkpoint-restore recoveries performed during this run
  /// (updater poisonings absorbed by the recovery loop).
  uint64_t recoveries = 0;
  /// Meaningful only when has_checkpoint_manager is set.
  core::CheckpointManager::Stats checkpoint;
  bool has_checkpoint_manager = false;
};

struct TrainReport {
  std::vector<double> losses;  // Per-step training loss.
  double final_train_loss = 0.0;
  double validation_loss = 0.0;
  double wall_seconds = 0.0;
  double steps_per_second = 0.0;
  uint64_t overflow_steps_skipped = 0;
  double final_loss_scale = 0.0;
  TelemetrySnapshot telemetry;
};

/// End-to-end mixed-precision training (Algorithm 2's "Computation on GPU"
/// loop) over one of two step backends:
///   * direct (TrainerOptions): per step it fetches the buffered fp16
///     parameters from the updater, runs a real forward/backward, offloads
///     fp16 gradients, and either updates synchronously (baseline) or lets
///     the lock-free updating/buffering threads run the optimizer
///     concurrently;
///   * paged (EngineTrainerOptions): every step goes through a core::Engine
///     the trainer owns — parameters staged into the fast tier on the
///     unified schedule, boundary activations stashed on the hierarchical
///     memory and interiors recomputed in backward (§4.2), gradients pushed
///     to the engine's (optionally lock-free) updater.
/// Init, resume, the recovery loop, checkpoints, validation and the report
/// are the same for both.
class Trainer {
 public:
  /// Direct backend. `allocator` and `model` must outlive the trainer; the
  /// allocator needs CPU (and SSD when requested) capacity for the model's
  /// states.
  Trainer(core::Allocator* allocator, const LayeredModel* model,
          const TrainerOptions& options);
  /// Paged backend (train/engine_trainer.h). `model` must outlive the
  /// trainer.
  Trainer(const LayeredModel* model, const EngineTrainerOptions& options);

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// Allocates and initializes all layer states (creating the engine on the
  /// paged backend).
  [[nodiscard]] util::Status Init();

  /// Restores the newest valid checkpoint from `checkpoint_dir` into this
  /// trainer — the restart-after-crash entry point. Returns false when no
  /// checkpoint exists (fresh start), true after an exact resume (master
  /// states, per-layer optimizer steps, global step, RNG cursor, loss-scaler
  /// schedule). A v1 checkpoint carries only the master states: the step
  /// counter and the data stream restart at 0. `dataset` is not used; it
  /// stays for existing callers. Call after Init(), before Train().
  [[nodiscard]] util::Result<bool> TryResume(const SyntheticRegression* dataset = nullptr);

  /// Runs `steps` training steps against `dataset`, returning the report.
  /// In lock-free mode the updater threads are started before the first
  /// step, and drained and stopped after the last, so the report reflects
  /// a consistent final model. With `max_recoveries > 0`, updater
  /// poisonings inside the run are absorbed by restoring the latest
  /// checkpoint into fresh state and rewinding to its step (the batches in
  /// between are regenerated from the restored RNG cursor — no gradient is
  /// silently dropped or double-applied).
  [[nodiscard]] util::Result<TrainReport> Train(const SyntheticRegression& dataset,
                                  int steps);

  /// Mean validation loss over `batches` fresh batches using the *master*
  /// fp32 parameters (what a checkpoint would contain), read once per
  /// layer: all batches advance through a layer before the next is read.
  [[nodiscard]] util::Result<double> Validate(const SyntheticRegression& dataset,
                                int batches);

  /// The updater holding the master states (the engine's on the paged
  /// backend); null before Init().
  core::LockFreeUpdater* updater() {
    return engine_ != nullptr ? engine_->updater() : updater_.get();
  }
  /// The paged backend's engine; null on the direct backend.
  core::Engine* engine() { return engine_.get(); }
  const LossScaler& loss_scaler() const { return scaler_; }
  core::CheckpointManager* checkpoint_manager() { return ckpt_manager_.get(); }
  /// Steps completed over this trainer's lifetime (survives recoveries and
  /// is restored by TryResume).
  int64_t global_step() const { return global_step_; }
  /// Checkpoint-restore recoveries performed by this trainer so far.
  uint64_t recoveries() const { return recoveries_; }

 private:
  /// One step phase's wall time: this run's distribution (reset at Train())
  /// plus the process-wide registry histogram of the same series
  /// ("train/fwd_us" etc.).
  struct PhaseTimer {
    obs::HistogramData run;
    obs::Histogram* metric = nullptr;
    void RecordSince(uint64_t start_us);
  };

  /// One direct training step: fetch every layer's fp16 parameters,
  /// forward, backward, offload the gradients; then, when `update` is set
  /// (synchronous mode, end of an accumulation window), one optimizer pass.
  [[nodiscard]] util::Result<double> DirectStep(const std::vector<float>& x,
                                                const std::vector<float>& y,
                                                bool update);
  /// One paged training step through the Engine's BeginStep / Use / Push /
  /// EndStep protocol; EndStep runs the synchronous optimizer pass.
  [[nodiscard]] util::Result<double> PagedStep(const std::vector<float>& x,
                                               const std::vector<float>& y);

  /// Creates the backend's state — the direct updater, or the whole
  /// Engine — and registers every model layer (shared by Init and the
  /// recovery rebuild; `rng` provides the initial parameters).
  [[nodiscard]] util::Status BuildState(util::Rng* rng);
  /// RunSteps, then waits for the last checkpoint's persist, whatever
  /// RunSteps returned.
  [[nodiscard]] util::Status TrainRange(const SyntheticRegression& dataset,
                          int64_t base_step, int64_t target_step,
                          TrainReport* report);
  /// The step loop from global_step_ to `target_step`, including periodic
  /// checkpoint cuts and the end-of-run update or drain. `base_step`
  /// anchors the accumulation cadence across recoveries.
  [[nodiscard]] util::Status RunSteps(const SyntheticRegression& dataset,
                                      int64_t base_step, int64_t target_step,
                                      TrainReport* report);
  /// Waits for the checkpoint writer; a failed persist is logged, as a
  /// failed save is.
  void FlushCheckpoints();
  /// Tears down the poisoned state and restores the latest checkpoint into
  /// a fresh one. Returns `cause` unchanged when recovery is not possible
  /// (no manager, budget exhausted, not a poisoning).
  [[nodiscard]] util::Status Recover(const util::Status& cause);
  /// Applies a loaded TrainProgress to this trainer's step/RNG/scaler.
  void RestoreProgress(const core::TrainProgress& progress);
  core::TrainProgress CurrentProgress() const;

  /// Direct backend: the caller's allocator. Null on the paged backend.
  core::Allocator* allocator_;
  const LayeredModel* model_;
  /// The paged backend keeps its loop options and lock-free mode here too.
  TrainerOptions options_;
  /// Set on the paged backend only: what BuildState creates the Engine from.
  std::optional<core::EngineOptions> engine_options_;
  bool offload_activations_ = false;
  std::unique_ptr<core::LockFreeUpdater> updater_;  // Direct backend.
  std::unique_ptr<core::Engine> engine_;            // Paged backend.
  std::unique_ptr<core::CheckpointManager> ckpt_manager_;
  LossScaler scaler_;
  util::Rng rng_;
  int64_t global_step_ = 0;
  uint64_t recoveries_ = 0;

  PhaseTimer fwd_us_;
  PhaseTimer bwd_us_;
  PhaseTimer opt_us_;
  obs::Counter* metric_recoveries_ = nullptr;
};

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_TRAINER_H_
