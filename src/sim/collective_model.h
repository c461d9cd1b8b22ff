#ifndef ANGELPTM_SIM_COLLECTIVE_MODEL_H_
#define ANGELPTM_SIM_COLLECTIVE_MODEL_H_

#include <cstdint>

#include "sim/hardware.h"

namespace angelptm::sim {

/// Alpha-beta description of one point-to-point link of the collective
/// fabric: every message pays `latency_per_message` seconds of fixed setup
/// (syscalls, framing, scheduler wakeup) plus payload_bytes / `bandwidth`
/// of serialization time.
struct CollectiveFabric {
  double latency_per_message = 0.0;
  double bandwidth = 1.0;  // bytes/second
};

/// Calibration for dist::ProcessGroup on one host: Unix-domain stream
/// sockets between local processes. Latency is dominated by the two
/// syscalls + wakeup per message; bandwidth by memcpy through the kernel
/// socket buffer. Deliberately conservative — predictions are an upper
/// band that measured runs should beat (see bench/dist_collectives).
CollectiveFabric LocalhostLoopback();

/// The cluster fabric of a HardwareConfig for a `world_size`-rank job
/// (NVLink inside a node, NIC-limited across nodes; §4.3).
CollectiveFabric FabricFromHardware(const HardwareConfig& hw, int world_size);

/// Latency model of the HUB topology dist::ProcessGroup implements
/// (DESIGN.md §14.2): rank 0 is the root; every collective is one
/// "up" message per peer into the root, sequentially in rank order, then
/// one "down" reply per peer. The model therefore scales linearly in
/// world_size — the honest cost of the topology (a ring would amortize
/// bandwidth but lose the deterministic reduction order the bitwise
/// guarantee depends on).
///
/// All predictions are wall-clock seconds for the whole collective (every
/// rank leaves together; the hub serializes, so root time == job time).
class CollectiveModel {
 public:
  explicit CollectiveModel(const CollectiveFabric& fabric)
      : fabric_(fabric) {}

  /// One hub round: per peer, an `up_bytes` message in and a `down_bytes`
  /// reply out. world_size == 1 is free (ProcessGroup short-circuits).
  double HubRoundSeconds(int world_size, uint64_t up_bytes,
                         uint64_t down_bytes) const;

  /// All-gather of `shard_bytes` per rank: peers send their shard up, the
  /// root replies with the concatenated world_size * shard_bytes.
  double AllGatherSeconds(int world_size, uint64_t shard_bytes) const;

  /// Reduce-scatter over a `total_bytes` buffer: peers send the full
  /// buffer up, the root replies with each peer's reduced
  /// total_bytes / world_size chunk.
  double ReduceScatterSeconds(int world_size, uint64_t total_bytes) const;

  /// All-reduce of `bytes`: full buffer up, reduced full buffer down.
  double AllReduceSeconds(int world_size, uint64_t bytes) const;

  /// Predicted collective time of one ZeRO-3 training step over layers of
  /// `param_bytes` each (fp32): per layer one all-gather of
  /// param_bytes / world_size shards and one reduce-scatter of the full
  /// gradient, plus the scalar loss all-reduce.
  double ZeroStepSeconds(int world_size, int num_layers,
                         uint64_t param_bytes_per_layer) const;

  const CollectiveFabric& fabric() const { return fabric_; }

 private:
  double MessageSeconds(uint64_t bytes) const;

  CollectiveFabric fabric_;
};

}  // namespace angelptm::sim

#endif  // ANGELPTM_SIM_COLLECTIVE_MODEL_H_
