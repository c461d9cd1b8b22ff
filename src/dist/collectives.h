#ifndef ANGELPTM_DIST_COLLECTIVES_H_
#define ANGELPTM_DIST_COLLECTIVES_H_

#include <memory>

#include "core/communicator.h"
#include "dist/process_group.h"
#include "util/status.h"

namespace angelptm::dist {

/// One rank's handle on the collective fabric — the seam that lets
/// ShardedDataParallel run the *same* rank loop over either backend:
///
///   * InProcessCollectives — world_size rank threads sharing one
///     core::Communicator (the simulated cluster; every existing test).
///   * ProcessGroupCollectives — one rank of a real multi-process job,
///     collectives over Unix-domain sockets (dist::ProcessGroup).
///
/// Both backends perform reductions in ascending rank order with double
/// accumulation, so the two are bitwise-interchangeable on pinned compute.
class Collectives {
 public:
  virtual ~Collectives() = default;

  virtual int rank() const = 0;
  virtual int world_size() const = 0;

  [[nodiscard]] virtual util::Status AllGather(const float* send,
                                               size_t count,
                                               float* recv) = 0;
  [[nodiscard]] virtual util::Status ReduceScatter(const float* send,
                                                   size_t total_count,
                                                   float* recv) = 0;
  [[nodiscard]] virtual util::Status AllReduce(float* data,
                                               size_t count) = 0;

  /// Sizes whatever scratch a collective with up to `bytes` per rank needs,
  /// so that the collectives themselves allocate nothing.
  virtual void Reserve(size_t bytes) = 0;

  virtual uint64_t collectives_completed() const = 0;
};

/// Rank-view adapter over a shared core::Communicator (which already
/// counts one collective per *group* operation).
class InProcessCollectives final : public Collectives {
 public:
  /// `communicator` is shared by all ranks and must outlive this object.
  InProcessCollectives(core::Communicator* communicator, int rank)
      : communicator_(communicator), rank_(rank) {}

  int rank() const override { return rank_; }
  int world_size() const override { return communicator_->world_size(); }

  [[nodiscard]] util::Status AllGather(const float* send, size_t count,
                                       float* recv) override {
    return communicator_->AllGather(rank_, send, count, recv);
  }
  [[nodiscard]] util::Status ReduceScatter(const float* send,
                                           size_t total_count,
                                           float* recv) override {
    return communicator_->ReduceScatter(rank_, send, total_count, recv);
  }
  [[nodiscard]] util::Status AllReduce(float* data, size_t count) override {
    return communicator_->AllReduce(rank_, data, count);
  }
  /// The communicator keeps no scratch between collectives.
  void Reserve(size_t) override {}
  uint64_t collectives_completed() const override {
    return communicator_->collectives_completed();
  }

 private:
  core::Communicator* communicator_;
  int rank_;
};

/// Owning adapter over a connected dist::ProcessGroup.
class ProcessGroupCollectives final : public Collectives {
 public:
  explicit ProcessGroupCollectives(std::unique_ptr<ProcessGroup> group)
      : group_(std::move(group)) {}

  int rank() const override { return group_->rank(); }
  int world_size() const override { return group_->world_size(); }

  [[nodiscard]] util::Status AllGather(const float* send, size_t count,
                                       float* recv) override {
    return group_->AllGather(send, count, recv);
  }
  [[nodiscard]] util::Status ReduceScatter(const float* send,
                                           size_t total_count,
                                           float* recv) override {
    return group_->ReduceScatter(send, total_count, recv);
  }
  [[nodiscard]] util::Status AllReduce(float* data, size_t count) override {
    return group_->AllReduce(data, count);
  }
  void Reserve(size_t bytes) override { group_->Reserve(bytes); }
  uint64_t collectives_completed() const override {
    return group_->collectives_completed();
  }

  ProcessGroup* group() { return group_.get(); }

 private:
  std::unique_ptr<ProcessGroup> group_;
};

}  // namespace angelptm::dist

#endif  // ANGELPTM_DIST_COLLECTIVES_H_
