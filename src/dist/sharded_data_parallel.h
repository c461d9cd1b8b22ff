#ifndef ANGELPTM_DIST_SHARDED_DATA_PARALLEL_H_
#define ANGELPTM_DIST_SHARDED_DATA_PARALLEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/adam.h"
#include "core/allocator.h"
#include "core/checkpoint.h"
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
///     (core/optimizer/optimizer.h; Adam default);
///   - each rank runs its collectives and its shard update on a comm lane,
///     one thread that works through them in posting order while the rank
///     thread computes: layer l's forward waits only for layer l's gather,
///     and layer l's reduce-scatter runs during layer l-1's backward
///     (DESIGN.md §14.1).
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
  /// shard state to `checkpoint_dir` every N completed steps, as a v3
  /// checkpoint in its own file series (ShardCheckpointStem), and Train()
  /// resumes from the latest step all ranks agree on (DESIGN.md §14.4).
  int checkpoint_every_n_steps = 0;
  std::string checkpoint_dir;
  /// Newest files kept per rank; < 1 keeps every file.
  int checkpoint_keep_last = 3;
};

/// The file stem of `rank`'s shard checkpoints in a job of `world_size`
/// ranks, e.g. "shard-w00004-r00001": the rank's files are the
/// core::CheckpointFiles series of that stem in the checkpoint directory.
std::string ShardCheckpointStem(int world_size, int rank);

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
  /// when checkpointing is configured. Fail-stop on both backends: once a
  /// rank fails, every rank leaves its loop, and kInProcess returns the
  /// failed rank's error (DESIGN.md §14.4).
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
    /// Per-rank optimizer master state, indexed [rank][slot]; one entry
    /// per SlotLayout(shard_count) slot of the configured rule. In
    /// kProcessGroup mode only the local rank's entry is non-empty.
    std::vector<std::vector<core::Tensor*>> slots;
    /// The rule's SlotLayout(shard_count): what `slots` hold, and how a
    /// checkpoint names them.
    std::vector<core::SlotSpec> layout;
    /// Stage 1 only: each rank's full fp32 parameter replica.
    std::vector<core::Tensor*> replica;
  };

  /// One rank's full training loop body. `comm` is that rank's view of the
  /// collective fabric; the loop's comm lane drives it from the first step
  /// to the last and is joined before the loop returns, on every path.
  /// `data` is the rank's copy of the data cursor at step 0: each step
  /// draws only the rank's rows of the global batch from it, and the
  /// `start_step` batches a resumed checkpoint already covers are skipped.
  /// On success `data` sits after batch `steps`.
  [[nodiscard]] util::Status RankLoop(
      int rank, Collectives* comm, const train::SyntheticRegression& dataset,
      util::Rng* data, int start_step, int steps,
      std::vector<double>* step_losses, bool record_losses);

  /// Ranks whose shards live in this process.
  [[nodiscard]] std::vector<int> LocalRanks() const;

  /// Every rank's p32 shard of `layer`, concatenated in rank order:
  /// padded_count floats. In kProcessGroup mode a collective, as
  /// GatherLayerParams.
  [[nodiscard]] util::Result<std::vector<float>> GatherPadded(int layer);

  /// `rank`'s shard checkpoint files.
  core::CheckpointFiles RankFiles(int rank) const;
  /// Writes `rank`'s current shard state as a checkpoint for step `step`,
  /// then rotates the rank's files.
  [[nodiscard]] util::Status SaveRankShards(int rank, int step);
  /// Agrees on the latest step every rank has a checkpoint for (collective
  /// in kProcessGroup mode), loads it into the local shards, and returns
  /// it; returns 0 on a fresh start. Fails with InvalidArgument when the
  /// directory holds another world size's files. Every local rank's file
  /// is parsed and checked against the job before any shard is written.
  [[nodiscard]] util::Result<int> TryResume();
  /// Checks a parsed shard file of step `step` against this job: the rule,
  /// the step, the layer count, and every p32 and slot size.
  [[nodiscard]] util::Status CheckShardFile(
      const core::ParsedCheckpoint& file, int step,
      const std::string& path) const;

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
