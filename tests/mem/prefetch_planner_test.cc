#include "mem/prefetch_planner.h"

#include <vector>

#include <gtest/gtest.h>

namespace angelptm::mem {
namespace {

/// The layer visit order of one training step: forward 0..n-1, then backward
/// n-1..0 — the sawtooth every test schedule here uses.
std::vector<uint64_t> SawtoothOrder(uint64_t layers) {
  std::vector<uint64_t> order;
  for (uint64_t l = 0; l < layers; ++l) order.push_back(l);
  for (uint64_t l = layers; l > 0; --l) order.push_back(l - 1);
  return order;
}

PrefetchPlanner TrainedPlanner(const std::vector<uint64_t>& order) {
  PrefetchPlanner planner;
  for (const uint64_t key : order) planner.RecordAccess(key);
  planner.FinishWarmup();
  return planner;
}

TEST(PrefetchPlannerTest, LearnedOrderMatchesRecordedTrace) {
  const std::vector<uint64_t> order = SawtoothOrder(6);
  const PrefetchPlanner planner = TrainedPlanner(order);
  EXPECT_TRUE(planner.trained());
  EXPECT_EQ(planner.learned_order(), order);
  EXPECT_EQ(planner.Snapshot().order_length, order.size());
  EXPECT_EQ(planner.Snapshot().recorded_accesses, order.size());
}

TEST(PrefetchPlannerTest, RecordingStopsAfterWarmup) {
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2});
  planner.RecordAccess(99);  // Steady state: must not grow the order.
  EXPECT_EQ(planner.learned_order().size(), 3u);
}

TEST(PrefetchPlannerTest, UntrainedPlannerAnswersConservatively) {
  PrefetchPlanner planner;
  EXPECT_FALSE(planner.trained());
  EXPECT_EQ(planner.NextUseDistance(0), PrefetchPlanner::kNeverUsed);
  planner.OnUse(0);  // Must be a harmless no-op before training.
  EXPECT_EQ(planner.Snapshot().mispredicts, 0u);
}

TEST(PrefetchPlannerTest, RepeatingScheduleIsFullyPredicted) {
  const std::vector<uint64_t> order = SawtoothOrder(5);
  PrefetchPlanner planner = TrainedPlanner(order);
  // Three steady-state steps that replay the learned order exactly: every
  // OnUse must be a predicted hit, none a mispredict.
  for (int step = 0; step < 3; ++step) {
    planner.BeginStep();
    for (const uint64_t key : order) planner.OnUse(key);
  }
  const PrefetchPlanner::Stats stats = planner.Snapshot();
  EXPECT_EQ(stats.predicted_hits, 3 * order.size());
  EXPECT_EQ(stats.mispredicts, 0u);
}

TEST(PrefetchPlannerTest, MispredictResyncsWithinTheStep) {
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2, 3});
  planner.BeginStep();
  planner.OnUse(0);
  planner.OnUse(2);  // Layer 1 skipped: one mispredict...
  planner.OnUse(3);  // ...but the cursor resynced, so this is a hit again.
  const PrefetchPlanner::Stats stats = planner.Snapshot();
  EXPECT_EQ(stats.mispredicts, 1u);
  EXPECT_EQ(stats.predicted_hits, 2u);
}

TEST(PrefetchPlannerTest, NextUseDistanceWrapsAroundThePeriod) {
  // Order 0 1 2 1 0: distances are relative to the cursor and wrap.
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2, 1, 0});
  planner.BeginStep();
  EXPECT_EQ(planner.NextUseDistance(0), 0u);
  EXPECT_EQ(planner.NextUseDistance(1), 1u);
  EXPECT_EQ(planner.NextUseDistance(2), 2u);
  planner.OnUse(0);
  planner.OnUse(1);
  // Cursor at position 2: key 0's only remaining use is position 4.
  EXPECT_EQ(planner.NextUseDistance(0), 2u);
  planner.OnUse(2);
  planner.OnUse(1);
  planner.OnUse(0);
  // Past the end of the period: distances wrap into the next step.
  EXPECT_EQ(planner.NextUseDistance(0), 0u);
  EXPECT_EQ(planner.NextUseDistance(2), 2u);
  EXPECT_EQ(planner.NextUseDistance(7), PrefetchPlanner::kNeverUsed);
}

TEST(PrefetchPlannerTest, EvictionNeverPicksTheImmediatelyNextKey) {
  const std::vector<uint64_t> order = SawtoothOrder(6);
  PrefetchPlanner planner = TrainedPlanner(order);
  planner.BeginStep();
  // Walk a full step; at every position, the immediately-next key must rank
  // last as long as any other candidate exists: Engine::MoveWithEviction
  // evicts the first ranked candidate still on the fast tier.
  std::vector<uint64_t> all = {0, 1, 2, 3, 4, 5};
  for (const uint64_t key : order) {
    planner.OnUse(key);
    const size_t cursor = planner.cursor();
    if (cursor >= order.size()) break;
    const uint64_t next_key = planner.learned_order()[cursor];
    EXPECT_EQ(planner.RankEvictionCandidates(all).back(), next_key)
        << "the immediately-next key does not rank last at cursor " << cursor;
    // Even from a two-element candidate set containing the next key.
    const uint64_t other = (next_key + 1) % 6;
    EXPECT_EQ(planner.RankEvictionCandidates({next_key, other}),
              (std::vector<uint64_t>{other, next_key}));
  }
  // Sole candidate: no choice but the next key.
  const uint64_t next_key = order[planner.cursor() % order.size()];
  EXPECT_EQ(planner.RankEvictionCandidates({next_key}),
            (std::vector<uint64_t>{next_key}));
  EXPECT_TRUE(planner.RankEvictionCandidates({}).empty());
}

TEST(PrefetchPlannerTest, RankingIsFarthestFirst) {
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2, 3});
  planner.BeginStep();
  planner.OnUse(0);  // Upcoming: 1 (d=0), 2 (d=1), 3 (d=2), 0 (wraps, d=3).
  EXPECT_EQ(planner.RankEvictionCandidates({1, 2, 3, 0}),
            (std::vector<uint64_t>{0, 3, 2, 1}));
  // Keys outside the learned order are free to evict: ranked first.
  EXPECT_EQ(planner.RankEvictionCandidates({1, 42}).front(), 42u);
}

}  // namespace
}  // namespace angelptm::mem
