#ifndef ANGELPTM_CORE_CHECKPOINT_H_
#define ANGELPTM_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/lockfree_updater.h"
#include "core/optimizer/optimizer.h"
#include "core/tensor.h"
#include "mem/ssd_tier.h"
#include "util/random.h"
#include "util/status.h"

namespace angelptm::core {

/// Checkpointing for failure recovery (§3.1: with hundreds of GPUs and
/// multi-week runs, "pre-training tasks would encounter GPU failure with a
/// high probability, and should be restarted after failure").
///
/// One format serves every writer: the trainer's CheckpointManager, and each
/// ZeRO rank (dist::ShardedDataParallel), whose file holds its shard of
/// every layer as that layer (DESIGN.md §9, §14.4).
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
/// Loading fails when the file's rule differs from the updater's. Only v3
/// loads: a v1 or v2 file is refused with InvalidArgument naming its
/// version.
///
/// The checksum makes torn/corrupt checkpoints detectable — a restart after
/// a mid-write crash must fail loudly, not resume from garbage. The parser
/// bounds every count by the bytes left in the file before it allocates,
/// so a corrupt count fails like any other corruption.

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
  /// Read by nothing: every v3 file carries the fields above. It stays
  /// only because perfbench/paged.cc sets it, and goes with the next
  /// benchmark change.
  bool has_progress = false;
};

/// Where a run of fp32 master bytes lives: host memory, or a byte range of
/// the SSD tier's backing file. A tensor's share of one page is one span,
/// so a span never exceeds a frame.
struct MasterSpan {
  /// Null for an SSD span.
  const std::byte* host = nullptr;
  /// Tier-file byte offset of an SSD span.
  uint64_t ssd_offset = 0;
  size_t bytes = 0;
};

/// Where `tensor`'s share of `page` lives: the page frame in memory, or the
/// page's frame in the SSD tier file.
[[nodiscard]] util::Result<MasterSpan> SpanOf(const Tensor& tensor,
                                              const mem::Page& page);

/// The span reader shared by checkpoint persists and master reads: copies
/// the span's bytes into `dst`, host spans by memcpy and SSD spans through
/// `ssd` in place (its retries and the "ssd.pread" failpoint apply).
[[nodiscard]] util::Status ReadMasterSpan(mem::SsdTier* ssd,
                                          const MasterSpan& span,
                                          std::byte* dst);

/// One layer's fp32 master state as a checkpoint cut captured it, in the
/// order checkpoint v3 serializes it (DESIGN.md §9): p32, then each slot
/// of the SlotLayout, each as byte spans in tensor order. An SSD-resident
/// page is not read: the cut pins its frame and records the tier-file
/// span. The updater's next write-back of the layer lands on fresh
/// frames, so the pinned bytes keep their cut-time values until Unpin()
/// or the destructor releases the pins. Memory-resident pages are copied
/// into `copied`.
struct MasterCut {
  struct Tensor {
    std::string name;  // The slot name; empty for p32.
    uint64_t count = 0;
    std::vector<MasterSpan> spans;
  };
  long step = 0;
  std::vector<Tensor> tensors;
  /// Bytes of the memory-resident pages; host spans point in here.
  std::vector<std::byte> copied;
  /// The tier the SSD spans name, and the frames the cut pinned.
  mem::SsdTier* ssd = nullptr;
  std::vector<uint64_t> pinned;

  MasterCut() = default;
  MasterCut(MasterCut&&) = default;
  MasterCut& operator=(MasterCut&&) = delete;
  ~MasterCut() { Unpin(); }
  /// Releases the pins; idempotent.
  void Unpin();
};

/// The span collection every cut runs: records `tensors` (p32, then one
/// fp32 tensor per `slot_layout` entry, named after it) into a fresh
/// `out`, copying memory-resident pages and pinning SSD-resident ones on
/// `ssd`. The caller keeps the tensors from changing while it runs (the
/// updater holds the layer's master mutex) and sets out->step.
[[nodiscard]] util::Status CutMasters(const std::vector<Tensor*>& tensors,
                                      const std::vector<SlotSpec>& slot_layout,
                                      mem::SsdTier* ssd, MasterCut* out);

/// Everything a checkpoint file holds, captured but not yet written: a save
/// is a cut followed by a persist (DESIGN.md §9). SSD-resident master
/// states stay in their tier frames, pinned, until the persist reads them;
/// destroying the cut releases whatever is still pinned.
struct CheckpointCut {
  TrainProgress progress;
  std::string rule;
  std::vector<MasterCut> layers;
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

/// A checkpoint file read into memory and verified.
struct ParsedCheckpoint {
  TrainProgress progress;
  std::string rule;
  std::vector<LockFreeUpdater::LayerState> layers;
};

/// Reads `path` (v3) and verifies its checksum; needs no updater.
/// Fails on a bad magic or version, truncation, a count larger than the
/// bytes left in the file, or a checksum error — always with a message
/// naming the file and the section that broke.
[[nodiscard]] util::Result<ParsedCheckpoint> ParseCheckpoint(
    const std::string& path);

/// ParseCheckpoint, then restores every layer's state into an updater with
/// the same rule and layer layout, filling `progress`. A file that fails
/// to parse, or holds another rule or layer count, leaves the updater
/// untouched. The updater must be stopped: importing under a live updating
/// thread would race.
[[nodiscard]] util::Status LoadCheckpoint(LockFreeUpdater* updater, const std::string& path,
                            TrainProgress* progress = nullptr);

/// The step-stamped files of one checkpoint series,
/// "<dir>/<stem>-<step padded to 9>.ckpt": the naming, listing and rotation
/// CheckpointManager and ZeRO's per-rank shard files share. Only exact
/// names count, so another stem's files and the ".ckpt.tmp" a killed
/// persist leaves are never listed, loaded or rotated.
struct CheckpointFiles {
  std::string dir;
  std::string stem;

  std::string PathForStep(int64_t step) const;
  /// The step `file_name` stamps, or -1 unless it is this series' name for
  /// that step.
  int64_t StepOf(const std::string& file_name) const;
  /// Steps on disk, ascending; empty when `dir` is missing.
  std::vector<int64_t> Steps() const;
  /// Deletes all but the newest `keep_last` files (keep_last < 1 keeps
  /// every file) and returns how many deletes failed, each logged: a file
  /// left behind costs disk, not correctness.
  uint64_t Rotate(int keep_last) const;
};

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_CHECKPOINT_H_
