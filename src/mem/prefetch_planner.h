#ifndef ANGELPTM_MEM_PREFETCH_PLANNER_H_
#define ANGELPTM_MEM_PREFETCH_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace angelptm::mem {

/// Trace-driven access-order model (DESIGN.md §12). Training steps visit
/// layers in a fixed periodic order (forward 0..L-1, backward L-1..0), so the
/// first (warmup) step's recorded access sequence *is* the schedule for every
/// later step — the paper's "traced first iteration drives the unified
/// scheduler", and the same observation PatrickStar's chunk manager exploits.
///
/// Lifecycle: RecordAccess() during the warmup step, FinishWarmup() once, then
/// per steady-state step: BeginStep() resets the cursor and OnUse() advances
/// it as uses actually happen. Queries (NextUseDistance,
/// RankEvictionCandidates) are relative to the current cursor, which makes
/// the engine's eviction Belady-style: evict the candidate whose next
/// predicted use is farthest in the future, never the immediately-next one.
///
/// OnUse() tolerates schedule drift: a use that does not match the predicted
/// next key counts as a mispredict and resyncs the cursor to that key's next
/// occurrence at-or-after the current position (wrapping), so one skipped
/// layer doesn't poison the rest of the step.
///
/// Single-threaded by contract: the engine's step loop owns the planner (no
/// internal locking), matching Engine's one-trainer-thread model.
class PrefetchPlanner {
 public:
  /// Prediction quality counters of this planner.
  struct Stats {
    uint64_t recorded_accesses = 0;
    uint64_t predicted_hits = 0;
    uint64_t mispredicts = 0;
    size_t order_length = 0;
  };

  /// Distance returned for keys the learned order never visits.
  static constexpr size_t kNeverUsed = static_cast<size_t>(-1);

  /// Appends one access to the warmup trace. Ignored after FinishWarmup().
  void RecordAccess(uint64_t key);
  /// Freezes the recorded trace as the learned periodic order. Idempotent;
  /// a planner with an empty trace simply never trains.
  void FinishWarmup();
  /// True once a non-empty order has been learned.
  bool trained() const { return trained_; }

  /// Resets the step cursor to the top of the learned order.
  void BeginStep();
  /// Advances past one actual use of `key`, resyncing on mispredicts.
  void OnUse(uint64_t key);

  /// Number of accesses (in learned-order positions, i.e. uses) until `key`
  /// is next needed, from the current cursor. 0 = `key` is the predicted
  /// immediately-next access; kNeverUsed = not in the learned order.
  /// Distances wrap around the period: a key just visited whose only
  /// occurrence is behind the cursor returns (period - cursor + position).
  size_t NextUseDistance(uint64_t key) const;

  /// Orders eviction candidates by descending next-use distance (Belady:
  /// farthest-next-use first, immediately-next last). Keys the order never
  /// visits sort first — they are free to evict. Stable for ties.
  std::vector<uint64_t> RankEvictionCandidates(
      const std::vector<uint64_t>& candidates) const;

  const std::vector<uint64_t>& learned_order() const { return order_; }
  size_t cursor() const { return cursor_; }
  Stats Snapshot() const;

 private:
  std::vector<uint64_t> order_;
  /// key -> sorted positions of its occurrences within order_.
  std::unordered_map<uint64_t, std::vector<size_t>> positions_;
  bool trained_ = false;
  size_t cursor_ = 0;

  uint64_t recorded_accesses_ = 0;
  uint64_t predicted_hits_ = 0;
  uint64_t mispredicts_ = 0;
};

}  // namespace angelptm::mem

#endif  // ANGELPTM_MEM_PREFETCH_PLANNER_H_
