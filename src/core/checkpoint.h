#ifndef ANGELPTM_CORE_CHECKPOINT_H_
#define ANGELPTM_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/lockfree_updater.h"
#include "util/random.h"
#include "util/status.h"

namespace angelptm::core {

/// Checkpointing for failure recovery (§3.1: with hundreds of GPUs and
/// multi-week runs, "pre-training tasks would encounter GPU failure with a
/// high probability, and should be restarted after failure").
///
/// Format (little-endian binary), version 3 (DESIGN.md §13):
///   magic "APTMCKPT" | version u32 |
///   progress: global_step i64, rng_state u64[4], rng_has_cached u8,
///             rng_cached_gaussian f64, loss_scale f64,
///             scaler_good_steps i32, scaler_overflows u64,
///             scaler_growths u64 |
///   rule: len u32, bytes (the optimizer registry key, e.g. "adam") |
///   num_layers u32 |
///   per layer: count u64, step i64, num_slots u32, p32[count],
///              per slot: name (len u32, bytes), slot_count u64,
///                        values f32[slot_count]
///   | checksum u64 (FNV-1a over everything before it)
///
/// The slot blocks are self-describing (named, independently sized), so a
/// rule with a different master-state footprint — sgdm's single m,
/// adafactor's factored row/col — round-trips without format changes.
/// Loading fails up front when the file's rule differs from the updater's.
///
/// Older versions still load: v2 files (fixed count|adam_step|p32|m32|v32
/// layers) are read as Adam states with {m, v} slots; v1 files additionally
/// predate the progress block, so their progress fields come back defaulted
/// with `has_progress == false` (step 0). A trainer resuming from one keeps
/// the master states and restarts its step counter and data stream at 0.
///
/// The checksum makes torn/corrupt checkpoints detectable — a restart after
/// a mid-write crash must fail loudly, not resume from garbage.

/// Trainer-side progress captured alongside the optimizer state so a resume
/// is exact, not approximate: the step counter, the data-stream RNG cursor,
/// and the dynamic loss-scaler schedule. (Per-layer Adam step counters live
/// with each layer's state.)
struct TrainProgress {
  /// Steps completed when the checkpoint was taken.
  int64_t global_step = 0;
  /// The trainer's RNG (batch stream cursor) at the checkpoint.
  util::Rng::State rng_state;
  /// Dynamic loss-scaler state (train::LossScaler::State, flattened here so
  /// core/ does not depend on train/).
  double loss_scale = 0.0;
  int32_t scaler_good_steps = 0;
  uint64_t scaler_overflows = 0;
  uint64_t scaler_growths = 0;
  /// False when the file predates the progress block (v1): everything above
  /// is defaulted.
  bool has_progress = false;
};

/// Everything a checkpoint file holds, captured but not yet written: a save
/// is a cut followed by a persist (DESIGN.md §9). SSD-resident master
/// states stay in their tier frames, pinned, until the persist reads them;
/// destroying the cut releases whatever is still pinned.
struct CheckpointCut {
  TrainProgress progress;
  std::string rule;
  std::vector<LockFreeUpdater::MasterCut> layers;
};

/// Cuts every layer through LockFreeUpdater::CutLayer (the per-layer
/// quiesce), so it is safe on a *running* updater. `progress` defaults when
/// null. On error nothing stays pinned.
[[nodiscard]] util::Status CutCheckpoint(LockFreeUpdater* updater,
                                         const TrainProgress* progress,
                                         CheckpointCut* out);

/// Serializes a cut to `path` in the v3 format — atomic: writes
/// `path.tmp`, fsyncs, then renames. Pinned SSD spans are read through the
/// tier into one span-sized buffer, and each layer is unpinned once its
/// bytes are written; when this returns, error or not, nothing of the cut
/// is pinned. `bytes_written`, when non-null, receives the file size on
/// success. The checkpoint.write and checkpoint.rename failpoints fire
/// here, on whichever thread persists.
[[nodiscard]] util::Status PersistCheckpoint(CheckpointCut* cut,
                                             const std::string& path,
                                             uint64_t* bytes_written = nullptr);

/// CutCheckpoint then PersistCheckpoint on the calling thread: writes every
/// layer's fp32 master state (plus `progress`, when given) to `path`.
[[nodiscard]] util::Status SaveCheckpoint(LockFreeUpdater* updater, const std::string& path,
                            const TrainProgress* progress = nullptr,
                            uint64_t* bytes_written = nullptr);

/// Restores every layer's state from `path` into an updater with the same
/// layer layout, filling `progress` (v1 files leave it defaulted). Fails on
/// layer-count/size mismatch, truncation, or checksum error — always with a
/// message naming the file and the section that broke. The updater must be
/// stopped: importing under a live updating thread would race.
[[nodiscard]] util::Status LoadCheckpoint(LockFreeUpdater* updater, const std::string& path,
                            TrainProgress* progress = nullptr);

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_CHECKPOINT_H_
