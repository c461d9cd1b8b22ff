#include "sim/collective_model.h"

namespace angelptm::sim {

CollectiveFabric LocalhostLoopback() {
  CollectiveFabric fabric;
  // ~2 syscalls + futex wakeup per framed message on an unloaded host;
  // kernel-buffer memcpy streams at a few GB/s. Both chosen at the slow
  // edge of what loopback sockets do, so the model brackets real runs
  // from above even on a busy CI machine.
  fabric.latency_per_message = 50e-6;
  fabric.bandwidth = 1.5e9;
  return fabric;
}

CollectiveFabric FabricFromHardware(const HardwareConfig& hw,
                                    int world_size) {
  CollectiveFabric fabric;
  fabric.latency_per_message = hw.alltoall_latency_per_peer;
  fabric.bandwidth = hw.CollectiveBwPerRank(world_size);
  return fabric;
}

double CollectiveModel::MessageSeconds(uint64_t bytes) const {
  return fabric_.latency_per_message + double(bytes) / fabric_.bandwidth;
}

double CollectiveModel::HubRoundSeconds(int world_size, uint64_t up_bytes,
                                        uint64_t down_bytes) const {
  if (world_size <= 1) return 0.0;
  const int peers = world_size - 1;
  return peers * (MessageSeconds(up_bytes) + MessageSeconds(down_bytes));
}

double CollectiveModel::AllGatherSeconds(int world_size,
                                         uint64_t shard_bytes) const {
  return HubRoundSeconds(world_size, shard_bytes,
                         uint64_t(world_size) * shard_bytes);
}

double CollectiveModel::ReduceScatterSeconds(int world_size,
                                             uint64_t total_bytes) const {
  if (world_size <= 1) return 0.0;
  return HubRoundSeconds(world_size, total_bytes,
                         total_bytes / uint64_t(world_size));
}

double CollectiveModel::AllReduceSeconds(int world_size,
                                         uint64_t bytes) const {
  return HubRoundSeconds(world_size, bytes, bytes);
}

double CollectiveModel::ZeroStepSeconds(
    int world_size, int num_layers, uint64_t param_bytes_per_layer) const {
  if (world_size <= 1) return 0.0;
  // Pad the shard the way ShardedDataParallel does (ceil division).
  const uint64_t shard_bytes =
      (param_bytes_per_layer + world_size - 1) / world_size;
  const uint64_t padded_bytes = shard_bytes * uint64_t(world_size);
  double total = 0.0;
  total += num_layers * AllGatherSeconds(world_size, shard_bytes);
  total += num_layers * ReduceScatterSeconds(world_size, padded_bytes);
  total += AllReduceSeconds(world_size, sizeof(float));
  return total;
}

}  // namespace angelptm::sim
