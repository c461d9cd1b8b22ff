#ifndef ANGELPTM_CORE_CHECKPOINT_MANAGER_H_
#define ANGELPTM_CORE_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/lockfree_updater.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::core {

/// Periodic-checkpoint policy over the checkpoint cut and persist (§3.1
/// failure recovery): writes step-stamped files into a directory, atomically
/// (tmp + fsync + rename, checksummed), keeps the last K, and on recovery
/// walks from the newest file backwards until one loads cleanly — a torn or
/// corrupt latest checkpoint falls back to the previous one instead of
/// killing the restart.
///
/// A Save is split (DESIGN.md §9): the *cut* runs on the caller's thread
/// and only takes each layer's master mutex long enough to pin its SSD
/// frames (or copy memory-resident masters); the *persist* — serializing,
/// checksumming, fsync, rename, rotation — runs on a background writer
/// thread, one per persist. At most one persist is in flight. Save, Flush,
/// LoadLatest, Init, Snapshot and the destructor wait for it. Writer
/// errors are first-error-wins: counted when they happen and returned by
/// the next Save or Flush.
///
/// The updater and the memory its masters live in must outlive the
/// persist: Flush() (or destroy the manager) before destroying them.
///
/// Durations, sizes, and fallback/recovery counters are read through
/// Snapshot().
class CheckpointManager {
 public:
  struct Options {
    /// Directory holding the rotated files (created by Init), named
    /// "ckpt-<step padded to 9>.ckpt" (core::kCheckpointStem).
    std::string dir;
    /// How many checkpoints to keep; older ones are deleted after a
    /// successful save. Minimum 1.
    int keep_last = 3;
  };

  explicit CheckpointManager(const Options& options);
  /// Waits for the in-flight persist and stops the writer; a writer error
  /// no Save or Flush returned is logged.
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Creates the checkpoint directory (recursively) and deletes the
  /// "ckpt-*.ckpt.tmp" files an interrupted persist left behind.
  /// Idempotent.
  [[nodiscard]] util::Status Init() ANGEL_EXCLUDES(save_mutex_, mutex_);

  /// Cuts a checkpoint at `progress.global_step` and hands it to the
  /// writer, which persists it and rotates old files. Safe while the
  /// updater's threads run. A Save that finds the previous persist still
  /// running waits for it (counted in Stats::busy_waits). Returns the first
  /// writer error no Save or Flush returned yet, else the cut's status. A
  /// failed save never disturbs existing checkpoints (the tmp file is
  /// discarded).
  [[nodiscard]] util::Status Save(LockFreeUpdater* updater,
                                  const TrainProgress& progress)
      ANGEL_EXCLUDES(save_mutex_, mutex_);

  /// Waits for the in-flight persist, then returns (and clears) the first
  /// writer error no Save or Flush returned yet.
  [[nodiscard]] util::Status Flush() ANGEL_EXCLUDES(save_mutex_, mutex_);

  /// Restores the newest checkpoint that loads cleanly, deleting nothing:
  /// corrupt files are skipped (counted as fallbacks) and left on disk for
  /// post-mortems. NotFound when no valid checkpoint exists. The updater
  /// must be stopped. Waits for the in-flight persist first.
  [[nodiscard]] util::Result<TrainProgress> LoadLatest(
      LockFreeUpdater* updater) ANGEL_EXCLUDES(save_mutex_, mutex_);

  /// Step-sorted (ascending) paths of the checkpoints currently on disk.
  std::vector<std::string> ListCheckpoints() const;

  /// Path a checkpoint for `step` would be written to.
  std::string PathForStep(int64_t step) const;

  struct Stats {
    /// Checkpoints persisted (files published).
    uint64_t saves = 0;
    /// Failed cuts plus failed persists.
    uint64_t save_failures = 0;
    uint64_t bytes_written = 0;
    uint64_t loads = 0;
    /// Corrupt/unreadable files skipped on the way to a clean load.
    uint64_t fallbacks = 0;
    /// Old checkpoints rotation failed to delete (they stay on disk and
    /// are retried after the next save).
    uint64_t rotate_failures = 0;
    /// Saves that found the previous persist still running and waited.
    uint64_t busy_waits = 0;
    /// Step of the most recent successful save (-1 = none this instance).
    int64_t last_saved_step = -1;
    /// Caller time per successful Save call — the cut plus any wait for a
    /// busy writer — microseconds.
    obs::HistogramData save_us;
    /// Writer time per successful persist, microseconds.
    obs::HistogramData persist_us;
  };
  /// Waits for the in-flight persist, so the counters are final.
  Stats Snapshot() const ANGEL_EXCLUDES(mutex_);

 private:
  /// A cut on its way to disk.
  struct PersistJob {
    CheckpointCut cut;
    std::string path;
    int64_t step = 0;
  };

  /// Persists one job, rotates, and records the outcome.
  void Persist(PersistJob* job) ANGEL_EXCLUDES(mutex_);
  /// Waits for the in-flight persist's thread, if any.
  void JoinWriter() ANGEL_REQUIRES(save_mutex_);
  /// Returns and clears the first unreported writer error.
  [[nodiscard]] util::Status TakeError() ANGEL_EXCLUDES(mutex_);

  Options options_;
  const CheckpointFiles files_;

  /// Serializes Save/Flush/LoadLatest/Init: one cut or load at a time.
  /// Held across a cut, which takes every layer's master mutex.
  util::Mutex save_mutex_{"ckpt.save", util::lockrank::kCheckpointSave};
  std::thread writer_ ANGEL_GUARDED_BY(save_mutex_);

  /// Stats plus the writer's state.
  mutable util::Mutex mutex_{"ckpt.stats", util::lockrank::kCheckpointStats};
  mutable util::CondVar writer_cv_;  // Snapshot waits here for !busy_.
  Stats stats_ ANGEL_GUARDED_BY(mutex_);
  /// True from the hand-off of a cut until its persist is recorded.
  bool busy_ ANGEL_GUARDED_BY(mutex_) = false;
  /// The first writer error no Save or Flush returned yet.
  util::Status error_ ANGEL_GUARDED_BY(mutex_);
};

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_CHECKPOINT_MANAGER_H_
