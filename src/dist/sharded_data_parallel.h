#ifndef ANGELPTM_DIST_SHARDED_DATA_PARALLEL_H_
#define ANGELPTM_DIST_SHARDED_DATA_PARALLEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/adam.h"
#include "core/allocator.h"
#include "core/communicator.h"
#include "core/optimizer/optimizer.h"
#include "dist/collectives.h"
#include "train/dataset.h"
#include "train/layered_model.h"
#include "util/random.h"
#include "util/status.h"

namespace angelptm::dist {

/// Real ZeRO-style sharded data parallelism (§3.2 "Parameter Sharding"):
///
///   - every rank owns 1/N of each layer's fp32 master states (parameter
///     plus the optimizer's declared slot layout), held as page-backed
///     tensors;
///   - per step, each layer's full parameters are materialized by an
///     all-gather of the shards, forward/backward runs on the rank's slice
///     of the global batch, and gradients synchronize by reduce-scatter so
///     each rank updates exactly its shard with the configured update rule
///     (core/optimizer/optimizer.h; Adam default).
///
/// Two execution backends share the identical rank loop (dist/collectives.h):
///
///   - kInProcess: all world_size ranks run as threads of this process over
///     a shared core::Communicator — the simulated cluster every pre-§14
///     test uses, and the bitwise reference for the socket backend.
///   - kProcessGroup: THIS object is one rank of a real multi-process job;
///     collectives travel over Unix-domain sockets (dist::ProcessGroup),
///     and only the local rank's shards are allocated. N such processes on
///     one host are the paper's actual distributed system in miniature
///     (launched by tools/angel_worker; see DESIGN.md §14).
///
/// With the same global batch, N-rank training is mathematically equivalent
/// to single-rank training (up to floating-point summation order), and an
/// N-rank socket run is *bitwise* equivalent to the N-thread in-process run
/// on a pinned 1-thread compute pool — verified by tests/dist/.
/// Which ZeRO optimization stage to run (§7 Related Work / ZeRO paper):
/// stage 1 shards only the optimizer states (each rank keeps a full fp32
/// parameter replica and re-gathers updated *shards* after the step);
/// stage 3 also shards the parameters themselves (full parameters are
/// materialized per layer per step by all-gather). Stage 3 is what
/// Angel-PTM builds on (§3.2).
enum class ZeroStage { kStage1 = 1, kStage3 = 3 };

enum class DpBackend {
  /// world_size rank threads in this process (core::Communicator).
  kInProcess,
  /// This process is one rank; sockets to the others (dist::ProcessGroup).
  kProcessGroup,
};

struct ShardedDpOptions {
  ZeroStage stage = ZeroStage::kStage3;
  int world_size = 4;
  DpBackend backend = DpBackend::kInProcess;
  /// kProcessGroup only: this process's rank and the rendezvous socket
  /// path shared by the whole job (see ProcessGroupOptions).
  int rank = 0;
  std::string rendezvous;
  /// When non-zero, each rank gets its own fast-tier arena of this size and
  /// stages the gathered full parameters into it page by page before
  /// compute, releasing them after the layer's backward — the per-rank
  /// paging path of the full system, under real multi-threaded churn.
  uint64_t rank_gpu_capacity_bytes = 0;
  /// Update rule + hyper-parameters; each rank applies it to its owned
  /// shard (the slot layout is computed per shard, so e.g. adafactor
  /// factors each shard's own rows x cols grid).
  core::OptimizerConfig optimizer;
  /// Legacy Adam knobs: non-default fields override `optimizer` via
  /// core::ResolveLegacyAdam. Prefer `optimizer`.
  core::AdamConfig adam;
  /// Per-rank micro-batch; the global batch is world_size * batch_per_rank.
  size_t batch_per_rank = 8;
  uint64_t seed = 1234;
  /// Fault tolerance (both backends): when > 0, every rank writes its
  /// shard state to `checkpoint_dir` every N completed steps, and Train()
  /// resumes from the latest step all ranks agree on (DESIGN.md §14.4).
  int checkpoint_every_n_steps = 0;
  std::string checkpoint_dir;
  int checkpoint_keep_last = 3;
};

struct DpReport {
  std::vector<double> losses;  // Global mean loss per step.
  double final_train_loss = 0.0;
  double validation_loss = 0.0;
  uint64_t collectives = 0;
  /// Step Train() resumed from (0 = fresh start).
  int resumed_step = 0;
};

class ShardedDataParallel {
 public:
  /// `allocator` and `model` must outlive this object. The allocator's CPU
  /// tier holds this process's shards (in-process: every rank's; process
  /// group: the local rank's only). The constructor only records the
  /// configuration — backends, sockets, and the optimizer are constructed
  /// lazily by Init(), which is also where a bad world_size surfaces as a
  /// Status instead of a crash.
  ShardedDataParallel(core::Allocator* allocator,
                      const train::LayeredModel* model,
                      const ShardedDpOptions& options);
  ~ShardedDataParallel();

  ShardedDataParallel(const ShardedDataParallel&) = delete;
  ShardedDataParallel& operator=(const ShardedDataParallel&) = delete;

  /// Validates the options, connects the configured backend (for
  /// kProcessGroup this performs the socket rendezvous and blocks until
  /// the whole world joined), and allocates + initializes the shards
  /// (identical full parameters on every rank's view, then scattered).
  [[nodiscard]] util::Status Init();

  /// Runs `steps` training steps (kInProcess: across world_size rank
  /// threads; kProcessGroup: this rank's loop, synchronized with the
  /// other processes). Resumes from the latest common checkpoint first
  /// when checkpointing is configured.
  [[nodiscard]] util::Result<DpReport> Train(
      const train::SyntheticRegression& dataset, int steps);

  /// Reconstructs a layer's full fp32 parameters from the shards. In
  /// kProcessGroup mode this is a *collective*: every rank of the job must
  /// call it (in the same order) for the all-gather to complete.
  [[nodiscard]] util::Result<std::vector<float>> GatherLayerParams(int layer);

  /// The local rank (kInProcess: always 0, the caller's view spans all
  /// ranks; kProcessGroup: this process's rank).
  int local_rank() const {
    return options_.backend == DpBackend::kProcessGroup ? options_.rank : 0;
  }

 private:
  struct Shard {
    size_t full_count = 0;    // Unpadded parameter elements of the layer.
    size_t padded_count = 0;  // Divisible by world_size.
    size_t shard_count = 0;   // padded_count / world_size.
    /// Per-rank parameter shards, indexed [rank]. In kProcessGroup mode
    /// only the local rank's entry is non-null.
    std::vector<core::Tensor*> p32;
    /// Per-rank optimizer master state, indexed [slot][rank]; one entry
    /// per SlotLayout(shard_count) slot of the configured rule.
    std::vector<std::vector<core::Tensor*>> slots;
    core::Tensor* SlotTensor(size_t slot, int rank) const {
      return slots[slot][size_t(rank)];
    }
    /// Stage 1 only: each rank's full fp32 parameter replica.
    std::vector<core::Tensor*> replica;
  };

  /// One rank's full training loop body. `comm` is that rank's view of the
  /// collective fabric; `start_step` skips the steps a resumed checkpoint
  /// already covers.
  [[nodiscard]] util::Status RankLoop(
      int rank, Collectives* comm, int start_step, int steps,
      const std::vector<std::vector<float>>* xs,
      const std::vector<std::vector<float>>* ys,
      std::vector<double>* step_losses, bool record_losses);

  /// Ranks whose shards live in this process.
  [[nodiscard]] std::vector<int> LocalRanks() const;

  /// Writes `rank`'s current shard state as a checkpoint for step `step`.
  [[nodiscard]] util::Status SaveRankShards(int rank, int step);
  /// Agrees on the latest step every rank has a checkpoint for (collective
  /// in kProcessGroup mode), loads it into the local shards, and returns
  /// it; returns 0 on a fresh start.
  [[nodiscard]] util::Result<int> TryResume();

  core::Allocator* allocator_;
  const train::LayeredModel* model_;
  ShardedDpOptions options_;
  /// The shared (stateless, const-Update) rule instance every rank uses on
  /// its own shard.
  std::unique_ptr<core::Optimizer> optimizer_;
  /// kInProcess backend: the shared communicator all rank threads use.
  std::unique_ptr<core::Communicator> comm_;
  /// kProcessGroup backend: this rank's socket collectives.
  std::unique_ptr<ProcessGroupCollectives> pg_;
  std::vector<Shard> shards_;
  /// Per-rank fast-tier memories/allocators (staging mode only).
  std::vector<std::unique_ptr<mem::HierarchicalMemory>> rank_memories_;
  std::vector<std::unique_ptr<core::Allocator>> rank_allocators_;
  util::Rng rng_;
};

}  // namespace angelptm::dist

#endif  // ANGELPTM_DIST_SHARDED_DATA_PARALLEL_H_
