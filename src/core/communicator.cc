#include "core/communicator.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/logging.h"

namespace angelptm::core {

Communicator::Communicator(int world_size)
    // ANGEL_CHECK's abort is not visible to GCC, which would otherwise size
    // the vector from a negative world_size and warn.
    : world_size_(world_size), published_(size_t(std::max(world_size, 1))) {
  ANGEL_CHECK(world_size >= 1) << "world_size must be positive";
}

util::Status Communicator::Arrive() {
  util::MutexLock lock(mutex_);
  if (aborted_by_ >= 0) return AbortedLocked();
  const uint64_t generation = generation_;
  if (++arrived_ == world_size_) {
    arrived_ = 0;
    ++generation_;
    cv_.NotifyAll();
    return util::Status::OK();
  }
  while (generation_ == generation && aborted_by_ < 0) cv_.Wait(mutex_);
  // A barrier that completed before the abort still counts.
  return generation_ != generation ? util::Status::OK() : AbortedLocked();
}

util::Status Communicator::AbortedLocked() const {
  return util::Status::Cancelled("collective abandoned: rank " +
                                 std::to_string(aborted_by_) + " failed");
}

void Communicator::Abort(int failed_rank) {
  util::MutexLock lock(mutex_);
  if (aborted_by_ >= 0) return;
  aborted_by_ = failed_rank;
  cv_.NotifyAll();
}

int Communicator::aborted_by() const {
  util::MutexLock lock(mutex_);
  return aborted_by_;
}

util::Status Communicator::AllGather(int rank, const float* send,
                                     size_t count, float* recv) {
  if (rank < 0 || rank >= world_size_) {
    return util::Status::InvalidArgument("bad rank");
  }
  {
    util::MutexLock lock(mutex_);
    published_[rank] = send;
  }
  ANGEL_RETURN_IF_ERROR(Arrive());  // All pointers published.
  for (int r = 0; r < world_size_; ++r) {
    std::memcpy(recv + size_t(r) * count, published_[r],
                count * sizeof(float));
  }
  ANGEL_RETURN_IF_ERROR(Arrive());  // All ranks done reading.
  if (rank == 0) {
    util::MutexLock lock(mutex_);
    ++collectives_;
  }
  return util::Status::OK();
}

util::Status Communicator::ReduceScatter(int rank, const float* send,
                                         size_t total_count, float* recv) {
  if (rank < 0 || rank >= world_size_) {
    return util::Status::InvalidArgument("bad rank");
  }
  if (total_count % world_size_ != 0) {
    return util::Status::InvalidArgument(
        "reduce-scatter count not divisible by world size");
  }
  const size_t chunk = total_count / world_size_;
  {
    util::MutexLock lock(mutex_);
    published_[rank] = send;
  }
  ANGEL_RETURN_IF_ERROR(Arrive());
  // Each rank reduces its own chunk across all ranks' buffers; ranks touch
  // disjoint chunk indices, so in-place aliasing with `send` is safe.
  for (size_t i = 0; i < chunk; ++i) {
    double sum = 0.0;
    for (int r = 0; r < world_size_; ++r) {
      sum += published_[r][size_t(rank) * chunk + i];
    }
    recv[i] = float(sum);
  }
  ANGEL_RETURN_IF_ERROR(Arrive());
  if (rank == 0) {
    util::MutexLock lock(mutex_);
    ++collectives_;
  }
  return util::Status::OK();
}

util::Status Communicator::AllReduce(int rank, float* data, size_t count) {
  if (rank < 0 || rank >= world_size_) {
    return util::Status::InvalidArgument("bad rank");
  }
  {
    util::MutexLock lock(mutex_);
    published_[rank] = data;
  }
  ANGEL_RETURN_IF_ERROR(Arrive());
  std::vector<float> reduced(count);
  for (size_t i = 0; i < count; ++i) {
    double sum = 0.0;
    for (int r = 0; r < world_size_; ++r) sum += published_[r][i];
    reduced[i] = float(sum);
  }
  // Everyone finished reading all buffers.
  ANGEL_RETURN_IF_ERROR(Arrive());
  std::memcpy(data, reduced.data(), count * sizeof(float));
  // Writes visible before the next collective reuses buffers.
  ANGEL_RETURN_IF_ERROR(Arrive());
  if (rank == 0) {
    util::MutexLock lock(mutex_);
    ++collectives_;
  }
  return util::Status::OK();
}

util::Status Communicator::AllToAll(int rank, const float* send,
                                    size_t count_per_peer, float* recv) {
  if (rank < 0 || rank >= world_size_) {
    return util::Status::InvalidArgument("bad rank");
  }
  {
    util::MutexLock lock(mutex_);
    published_[rank] = send;
  }
  ANGEL_RETURN_IF_ERROR(Arrive());
  for (int peer = 0; peer < world_size_; ++peer) {
    std::memcpy(recv + size_t(peer) * count_per_peer,
                published_[peer] + size_t(rank) * count_per_peer,
                count_per_peer * sizeof(float));
  }
  ANGEL_RETURN_IF_ERROR(Arrive());
  if (rank == 0) {
    util::MutexLock lock(mutex_);
    ++collectives_;
  }
  return util::Status::OK();
}

uint64_t Communicator::collectives_completed() const {
  util::MutexLock lock(mutex_);
  return collectives_;
}

}  // namespace angelptm::core
