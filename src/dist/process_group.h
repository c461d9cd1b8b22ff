#ifndef ANGELPTM_DIST_PROCESS_GROUP_H_
#define ANGELPTM_DIST_PROCESS_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace angelptm::dist {

/// Configuration of one rank's membership in a multi-process group.
struct ProcessGroupOptions {
  int rank = 0;
  int world_size = 1;
  /// Rendezvous address: a filesystem path for the Unix-domain socket rank
  /// 0 listens on. Every rank of the job must pass the same path.
  std::string rendezvous;
  /// How long non-root ranks keep retrying the connect while rank 0 is
  /// still starting up (and how long rank 0 waits for the world to join).
  int connect_timeout_ms = 20000;
  /// Per-frame receive deadline inside collectives. A peer that neither
  /// sends nor dies within this window fails the collective with
  /// DeadlineExceeded (a hung-rank detector for the test harness).
  int io_timeout_ms = 120000;
};

/// True multi-process collectives over Unix-domain sockets (§4/§5: the
/// step from the simulated in-process `core::Communicator` to an actual
/// distributed system on one host).
///
/// Topology: a hub. Rank 0 binds the rendezvous socket and every other
/// rank connects to it; collectives move data rank->root, the root reduces
/// or concatenates *in ascending rank order with double accumulation* —
/// exactly the arithmetic of `core::Communicator` — and fans the result
/// back out. That choice makes an N-rank socket run bitwise-identical to
/// the N-thread in-process run, which is what the cross-backend tests
/// compare (tests/dist/).
///
/// Wire format: mem/wire_format.h frames, one frame per message,
/// sequence-numbered per connection so a desynchronized stream is detected
/// instead of mis-delivered. Every receive is bounded by the payload size
/// the protocol expects, so a peer's header cannot make it allocate more.
///
/// Failure model: fail-stop. A dead peer surfaces as an IoError matching
/// IsPeerLoss() on every rank that touches the broken connection; the
/// launcher is expected to gang-restart the job from the latest checkpoint
/// (DESIGN.md §14.4).
///
/// Thread-compatibility: one ProcessGroup instance belongs to one rank and
/// must be driven from one thread at a time (the same contract NCCL
/// communicators have). Distinct instances — even in one process — are
/// fully independent, which is how the property tests run a whole world as
/// threads over real sockets.
class ProcessGroup {
 public:
  /// Performs the rendezvous: rank 0 binds + accepts world_size-1 hellos,
  /// everyone else connects with retry until `connect_timeout_ms`. Returns
  /// only once the full world is joined (the constructor doubles as the
  /// job's first barrier).
  [[nodiscard]] static util::Result<std::unique_ptr<ProcessGroup>> Connect(
      const ProcessGroupOptions& options);

  /// Reads rank / world size / rendezvous from the environment:
  /// ANGEL_RANK, ANGEL_WORLD_SIZE, ANGEL_RENDEZVOUS (the contract of the
  /// angel_worker launcher binary).
  [[nodiscard]] static util::Result<ProcessGroupOptions> OptionsFromEnv();

  ~ProcessGroup();
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  int rank() const { return options_.rank; }
  int world_size() const { return options_.world_size; }

  /// recv (world_size * count floats) receives every rank's `send` (count
  /// floats) in rank order — same contract as Communicator::AllGather.
  [[nodiscard]] util::Status AllGather(const float* send, size_t count,
                                       float* recv);

  /// Dtype-agnostic all-gather: recv (world_size * bytes) receives every
  /// rank's `bytes` of `send` in rank order. Underlies AllGather and the
  /// fp16/byte legs of the property tests.
  [[nodiscard]] util::Status AllGatherBytes(const void* send, size_t bytes,
                                            void* recv);

  /// Element-wise sum of all ranks' `send` (total_count floats) in rank
  /// order with double accumulation; rank r receives chunk r of size
  /// total_count / world_size — same contract (and same bits) as
  /// Communicator::ReduceScatter.
  [[nodiscard]] util::Status ReduceScatter(const float* send,
                                           size_t total_count, float* recv);

  /// In-place element-wise sum across ranks.
  [[nodiscard]] util::Status AllReduce(float* data, size_t count);

  /// Rendezvous with no data.
  [[nodiscard]] util::Status Barrier();

  uint64_t collectives_completed() const { return stats_.collectives; }

  struct Stats {
    uint64_t collectives = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    /// Wall time spent inside collectives (send + wait + recv), µs.
    uint64_t collective_us = 0;
  };
  Stats GetStats() const { return stats_; }

  /// True when `status` means a peer process died or the connection to it
  /// broke — the fail-stop signal the launcher turns into a gang restart
  /// (angel_worker exits with code 42 on it).
  static bool IsPeerLoss(const util::Status& status);

 private:
  explicit ProcessGroup(const ProcessGroupOptions& options);

  [[nodiscard]] util::Status Rendezvous();
  [[nodiscard]] util::Status RendezvousRoot();
  [[nodiscard]] util::Status RendezvousPeer();

  /// Frame send/recv under the §7 retry schedule (util::RetryTransient),
  /// with the pg.send / pg.recv failpoints applied per attempt: an
  /// injected fault or a transient socket error is retried, peer loss
  /// never is (fail-stop). RecvChecked rejects a payload larger than
  /// `max_bytes`.
  [[nodiscard]] util::Status SendChecked(int fd, uint16_t op, uint32_t seq,
                                         const void* payload, size_t bytes);
  [[nodiscard]] util::Status RecvChecked(int fd, uint16_t expect_op,
                                         uint32_t expect_seq,
                                         uint16_t expect_rank,
                                         size_t max_bytes,
                                         std::vector<std::byte>* payload);

  /// Root half of a hub round: receives every non-root rank's `bytes`-sized
  /// contribution tagged `op` into gathered_[r] (gathered_[0] becomes a
  /// copy of the root's own `send`), ascending rank order.
  [[nodiscard]] util::Status HubCollect(uint16_t op, const void* send,
                                        size_t bytes);
  /// Non-root half: sends this rank's contribution and receives the
  /// root's kResult reply, at most `reply_bytes`, into `reply`.
  [[nodiscard]] util::Status PeerExchange(uint16_t op, const void* send,
                                          size_t bytes, size_t reply_bytes,
                                          std::vector<std::byte>* reply);

  ProcessGroupOptions options_;
  /// Root: one connected fd per non-root rank (index 0 unused).
  /// Non-root: fds_[0] is the connection to the root.
  std::vector<int> fds_;
  int listen_fd_ = -1;
  uint32_t seq_ = 0;
  Stats stats_;
  /// Root-side scratch: every rank's contribution of the current round.
  std::vector<std::vector<std::byte>> gathered_;
};

}  // namespace angelptm::dist

#endif  // ANGELPTM_DIST_PROCESS_GROUP_H_
