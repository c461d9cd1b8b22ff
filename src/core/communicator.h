#ifndef ANGELPTM_CORE_COMMUNICATOR_H_
#define ANGELPTM_CORE_COMMUNICATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::core {

/// The Communicator of §5: collective communication primitives between
/// data-parallel ranks (the paper implements them over NCCL; this
/// reproduction implements them over shared memory between rank threads,
/// which preserves the semantics the engine and tests rely on).
///
/// Every collective must be entered by all `world_size` ranks, each from
/// its own thread. Calls rendezvous on an internal barrier; each rank
/// publishes a pointer to its send buffer, and the others read it in
/// place before the closing barrier.
///
/// Failure model: fail-stop, like the socket backend (DESIGN.md §14.4). A
/// rank that fails calls Abort(); the collective its peers wait in, and
/// every later one, returns Cancelled naming it.
class Communicator {
 public:
  explicit Communicator(int world_size);

  int world_size() const { return world_size_; }

  /// recv (world_size * count floats) receives every rank's `send`
  /// (count floats), ordered by rank — the primitive ZeRO-3 uses to
  /// materialize full parameters from shards.
  [[nodiscard]] util::Status AllGather(int rank, const float* send,
                                       size_t count, float* recv)
      ANGEL_EXCLUDES(mutex_);

  /// Element-wise sum of all ranks' `send` (total_count floats), scattered:
  /// rank r receives chunk r of size total_count / world_size — the
  /// gradient-synchronization primitive of sharded data parallelism.
  [[nodiscard]] util::Status ReduceScatter(int rank, const float* send,
                                           size_t total_count, float* recv)
      ANGEL_EXCLUDES(mutex_);

  /// In-place element-wise sum across ranks (classic data parallelism).
  [[nodiscard]] util::Status AllReduce(int rank, float* data, size_t count)
      ANGEL_EXCLUDES(mutex_);

  /// rank r's chunk p (count_per_peer floats) is delivered to rank p's
  /// chunk r — the MoE token-routing primitive (§6.4).
  [[nodiscard]] util::Status AllToAll(int rank, const float* send,
                                      size_t count_per_peer, float* recv)
      ANGEL_EXCLUDES(mutex_);

  /// Stops the group for good: wakes every rank waiting in a collective,
  /// which then returns Cancelled naming `failed_rank` without reading a
  /// peer's buffer, as does every later collective. `failed_rank` must have
  /// left its last collective, so no peer still reads its buffers. The
  /// first call wins.
  void Abort(int failed_rank) ANGEL_EXCLUDES(mutex_);
  /// The rank whose Abort() stopped the group, or -1.
  int aborted_by() const ANGEL_EXCLUDES(mutex_);

  uint64_t collectives_completed() const ANGEL_EXCLUDES(mutex_);

 private:
  /// Reusable barrier: returns OK once all ranks arrived, or Cancelled
  /// when the group is aborted first.
  [[nodiscard]] util::Status Arrive() ANGEL_EXCLUDES(mutex_);
  [[nodiscard]] util::Status AbortedLocked() const ANGEL_REQUIRES(mutex_);

  int world_size_;
  mutable util::Mutex mutex_{"core.communicator",
                             util::lockrank::kCommunicator};
  util::CondVar cv_;
  int arrived_ ANGEL_GUARDED_BY(mutex_) = 0;
  uint64_t generation_ ANGEL_GUARDED_BY(mutex_) = 0;
  uint64_t collectives_ ANGEL_GUARDED_BY(mutex_) = 0;
  int aborted_by_ ANGEL_GUARDED_BY(mutex_) = -1;
  /// Written under mutex_, but deliberately read *outside* it between the
  /// two Arrive() barriers of each collective: the barrier's happens-before
  /// ordering (not the mutex) is what makes those reads race-free, a
  /// relationship outside the analysis's vocabulary.  // lint: unguarded
  std::vector<const float*> published_;
};

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_COMMUNICATOR_H_
