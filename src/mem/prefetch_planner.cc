#include "mem/prefetch_planner.h"

#include <algorithm>

namespace angelptm::mem {

void PrefetchPlanner::RecordAccess(uint64_t key) {
  if (trained_) return;
  order_.push_back(key);
  ++recorded_accesses_;
}

void PrefetchPlanner::FinishWarmup() {
  if (trained_ || order_.empty()) return;
  positions_.clear();
  for (size_t i = 0; i < order_.size(); ++i) {
    positions_[order_[i]].push_back(i);
  }
  trained_ = true;
  cursor_ = 0;
}

void PrefetchPlanner::BeginStep() { cursor_ = 0; }

void PrefetchPlanner::OnUse(uint64_t key) {
  if (!trained_) return;
  const size_t period = order_.size();
  if (cursor_ < period && order_[cursor_] == key) {
    ++predicted_hits_;
    ++cursor_;
    return;
  }
  ++mispredicts_;
  // Resync: jump past this key's next occurrence at-or-after the cursor
  // (wrapping), so the rest of the step predicts from the right place.
  const auto it = positions_.find(key);
  if (it == positions_.end()) return;  // Unknown key: hold position.
  const std::vector<size_t>& occurrences = it->second;
  const auto next =
      std::lower_bound(occurrences.begin(), occurrences.end(), cursor_);
  cursor_ = (next != occurrences.end() ? *next : occurrences.front()) + 1;
}

size_t PrefetchPlanner::NextUseDistance(uint64_t key) const {
  if (!trained_) return kNeverUsed;
  const auto it = positions_.find(key);
  if (it == positions_.end()) return kNeverUsed;
  const std::vector<size_t>& occurrences = it->second;
  const size_t period = order_.size();
  const size_t cursor = cursor_ % period;
  const auto next =
      std::lower_bound(occurrences.begin(), occurrences.end(), cursor);
  if (next != occurrences.end()) return *next - cursor;
  // Only occurrences behind the cursor remain: wrap into the next period.
  return period - cursor + occurrences.front();
}

std::vector<uint64_t> PrefetchPlanner::RankEvictionCandidates(
    const std::vector<uint64_t>& candidates) const {
  std::vector<uint64_t> ranked = candidates;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [this](uint64_t a, uint64_t b) {
                     return NextUseDistance(a) > NextUseDistance(b);
                   });
  return ranked;
}

PrefetchPlanner::Stats PrefetchPlanner::Snapshot() const {
  Stats stats;
  stats.recorded_accesses = recorded_accesses_;
  stats.predicted_hits = predicted_hits_;
  stats.mispredicts = mispredicts_;
  stats.order_length = order_.size();
  return stats;
}

}  // namespace angelptm::mem
