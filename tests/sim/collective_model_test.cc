#include "sim/collective_model.h"

#include <gtest/gtest.h>

namespace angelptm::sim {
namespace {

TEST(CollectiveModelTest, WorldOfOneIsFree) {
  CollectiveModel model(LocalhostLoopback());
  EXPECT_EQ(model.AllGatherSeconds(1, 1 << 20), 0.0);
  EXPECT_EQ(model.ReduceScatterSeconds(1, 1 << 20), 0.0);
  EXPECT_EQ(model.AllReduceSeconds(1, 1 << 20), 0.0);
  EXPECT_EQ(model.ZeroStepSeconds(1, 8, 1 << 20), 0.0);
}

TEST(CollectiveModelTest, BarrierIsPureLatency) {
  CollectiveFabric fabric;
  fabric.latency_per_message = 1e-4;
  fabric.bandwidth = 1e9;
  CollectiveModel model(fabric);
  // An empty-payload round at world=4: 3 peers x (up + down) = 6 messages
  // of pure setup cost.
  EXPECT_DOUBLE_EQ(model.HubRoundSeconds(4, 0, 0), 6 * 1e-4);
}

TEST(CollectiveModelTest, HubScalesLinearlyInWorldSize) {
  CollectiveModel model(LocalhostLoopback());
  const uint64_t bytes = 256 * 1024;
  double prev = 0.0;
  for (int world = 2; world <= 16; world *= 2) {
    const double t = model.AllReduceSeconds(world, bytes);
    EXPECT_GT(t, prev) << "world " << world;
    prev = t;
  }
  // The hub serializes: all-reduce at world 2w costs more than 2x the
  // world-w time (2w-1 vs w-1 peer exchanges, > 2x for any w > 1).
  EXPECT_GT(model.AllReduceSeconds(8, bytes),
            2 * model.AllReduceSeconds(4, bytes));
}

TEST(CollectiveModelTest, MonotoneInPayload) {
  CollectiveModel model(LocalhostLoopback());
  EXPECT_GT(model.AllGatherSeconds(4, 1 << 20),
            model.AllGatherSeconds(4, 1 << 10));
  EXPECT_GT(model.ReduceScatterSeconds(4, 1 << 20),
            model.ReduceScatterSeconds(4, 1 << 10));
}

TEST(CollectiveModelTest, AllGatherAndReduceScatterAreWireSymmetric) {
  // An all-gather of S-byte shards and a reduce-scatter of the W*S-byte
  // full buffer move exactly the same bytes over the hub, just in opposite
  // directions — the model must agree.
  CollectiveModel model(LocalhostLoopback());
  const int world = 4;
  const uint64_t shard = 64 * 1024;
  EXPECT_DOUBLE_EQ(model.AllGatherSeconds(world, shard),
                   model.ReduceScatterSeconds(world, world * shard));
}

TEST(CollectiveModelTest, ZeroStepSumsPerLayerCollectives) {
  CollectiveModel model(LocalhostLoopback());
  const int world = 4;
  const uint64_t layer_bytes = 300 * 1024;  // Not divisible by world.
  const uint64_t shard = (layer_bytes + world - 1) / world;
  const double expected =
      3 * (model.AllGatherSeconds(world, shard) +
           model.ReduceScatterSeconds(world, shard * world)) +
      model.AllReduceSeconds(world, sizeof(float));
  EXPECT_DOUBLE_EQ(model.ZeroStepSeconds(world, 3, layer_bytes), expected);
}

TEST(CollectiveModelTest, HardwareFabricSwitchesAtNodeBoundary) {
  const HardwareConfig hw;
  const CollectiveFabric intra = FabricFromHardware(hw, hw.gpus_per_node);
  const CollectiveFabric inter =
      FabricFromHardware(hw, hw.gpus_per_node * 2);
  EXPECT_GT(intra.bandwidth, inter.bandwidth);
  CollectiveModel intra_model(intra), inter_model(inter);
  EXPECT_LT(intra_model.AllGatherSeconds(8, 1 << 20),
            inter_model.AllGatherSeconds(8, 1 << 20));
}

}  // namespace
}  // namespace angelptm::sim
