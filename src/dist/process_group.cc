#include "dist/process_group.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "mem/wire_format.h"
#include "util/env_override.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/retry.h"

namespace angelptm::dist {

namespace wire = mem::wire;

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

util::Status MakeSockAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty()) {
    return util::Status::InvalidArgument("empty rendezvous path");
  }
  if (path.size() >= sizeof(addr->sun_path)) {
    return util::Status::InvalidArgument(
        "rendezvous path too long for a Unix socket (" +
        std::to_string(path.size()) + " >= " +
        std::to_string(sizeof(addr->sun_path)) + "): " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return util::Status::OK();
}

/// Runs one frame send or receive under util::RetryTransient. Only an
/// injected or transient I/O error is worth another attempt: peer loss is
/// fail-stop, and a deadline already waited as long as it was allowed to.
template <typename Attempt>
util::Status RetryFrame(Attempt&& attempt) {
  return util::RetryTransient(
      attempt,
      [](const util::Status& failed) {
        return failed.IsIoError() && !ProcessGroup::IsPeerLoss(failed);
      },
      [](const util::Status&, int, int) {});
}

}  // namespace

ProcessGroup::ProcessGroup(const ProcessGroupOptions& options)
    : options_(options) {}

ProcessGroup::~ProcessGroup() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.rendezvous.c_str());
  }
}

bool ProcessGroup::IsPeerLoss(const util::Status& status) {
  return status.IsIoError() &&
         status.message().find(wire::kPeerClosedMsg) != std::string::npos;
}

util::Result<ProcessGroupOptions> ProcessGroup::OptionsFromEnv() {
  ProcessGroupOptions options;
  options.rank = int(util::EnvSizeOr("ANGEL_RANK", 0));
  options.world_size = int(util::EnvSizeOr("ANGEL_WORLD_SIZE", 0));
  options.rendezvous = util::EnvStringOr("ANGEL_RENDEZVOUS", "");
  if (options.world_size <= 0) {
    return util::Status::InvalidArgument(
        "ANGEL_WORLD_SIZE must be set to a positive integer");
  }
  if (options.rank < 0 || options.rank >= options.world_size) {
    return util::Status::InvalidArgument(
        "ANGEL_RANK " + std::to_string(options.rank) +
        " out of range for world size " +
        std::to_string(options.world_size));
  }
  if (options.world_size > 1 && options.rendezvous.empty()) {
    return util::Status::InvalidArgument(
        "ANGEL_RENDEZVOUS must name a socket path for world size > 1");
  }
  return options;
}

util::Result<std::unique_ptr<ProcessGroup>> ProcessGroup::Connect(
    const ProcessGroupOptions& options) {
  if (options.world_size < 1) {
    return util::Status::InvalidArgument("world_size must be >= 1");
  }
  if (options.rank < 0 || options.rank >= options.world_size) {
    return util::Status::InvalidArgument("rank out of range");
  }
  if (options.world_size > 0xFFFF) {
    return util::Status::InvalidArgument("world_size exceeds wire range");
  }
  std::unique_ptr<ProcessGroup> group(new ProcessGroup(options));
  ANGEL_RETURN_IF_ERROR(group->Rendezvous());
  return group;
}

util::Status ProcessGroup::Rendezvous() {
  if (options_.world_size == 1) return util::Status::OK();  // No wire.
  if (options_.rank == 0) return RendezvousRoot();
  return RendezvousPeer();
}

util::Status ProcessGroup::RendezvousRoot() {
  sockaddr_un addr;
  ANGEL_RETURN_IF_ERROR(MakeSockAddr(options_.rendezvous, &addr));
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError(std::string("socket() failed: ") +
                                 std::strerror(errno));
  }
  // A stale socket file from a killed previous incarnation must not block
  // the restart: the rendezvous path is owned by whoever is rank 0 now.
  ::unlink(options_.rendezvous.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return util::Status::IoError("bind(" + options_.rendezvous +
                                 ") failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, options_.world_size) != 0) {
    return util::Status::IoError(std::string("listen() failed: ") +
                                 std::strerror(errno));
  }
  fds_.assign(size_t(options_.world_size), -1);
  const int64_t deadline =
      NowUs() + int64_t(options_.connect_timeout_ms) * 1000;
  int joined = 0;
  while (joined < options_.world_size - 1) {
    if (NowUs() > deadline) {
      return util::Status::DeadlineExceeded(
          "rendezvous: only " + std::to_string(joined) + " of " +
          std::to_string(options_.world_size - 1) +
          " peers joined within the connect timeout");
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(std::string("accept() failed: ") +
                                   std::strerror(errno));
    }
    wire::Header hello;
    std::vector<std::byte> payload;
    util::Status received =
        wire::RecvFrame(fd, &hello, &payload, sizeof(uint32_t),
                        options_.connect_timeout_ms);
    if (received.ok() && hello.op != wire::Op::kHello) {
      received = util::Status::InvalidArgument(
          "rendezvous: expected a hello frame");
    }
    if (received.ok() && payload.size() == sizeof(uint32_t)) {
      uint32_t peer_world;
      std::memcpy(&peer_world, payload.data(), sizeof(peer_world));
      if (int(peer_world) != options_.world_size) {
        received = util::Status::InvalidArgument(
            "rendezvous: peer rank " + std::to_string(hello.rank) +
            " was launched with world size " + std::to_string(peer_world) +
            ", this root has " + std::to_string(options_.world_size));
      }
    }
    if (received.ok() &&
        (hello.rank == 0 || hello.rank >= options_.world_size)) {
      received = util::Status::InvalidArgument(
          "rendezvous: hello from out-of-range rank " +
          std::to_string(hello.rank));
    }
    if (received.ok() && fds_[hello.rank] != -1) {
      received = util::Status::InvalidArgument(
          "rendezvous: duplicate hello from rank " +
          std::to_string(hello.rank));
    }
    if (!received.ok()) {
      ::close(fd);
      return received;
    }
    fds_[hello.rank] = fd;
    ++joined;
  }
  // The world is complete: release everyone (their Connect() returns only
  // after this welcome, so Connect doubles as a barrier).
  for (int r = 1; r < options_.world_size; ++r) {
    wire::Header welcome;
    welcome.op = wire::Op::kWelcome;
    welcome.rank = 0;
    welcome.seq = 0;
    welcome.payload_bytes = 0;
    ANGEL_RETURN_IF_ERROR(wire::SendFrame(fds_[r], welcome, nullptr));
  }
  gathered_.resize(size_t(options_.world_size));
  return util::Status::OK();
}

util::Status ProcessGroup::RendezvousPeer() {
  sockaddr_un addr;
  ANGEL_RETURN_IF_ERROR(MakeSockAddr(options_.rendezvous, &addr));
  const int64_t deadline =
      NowUs() + int64_t(options_.connect_timeout_ms) * 1000;
  int fd = -1;
  for (;;) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return util::Status::IoError(std::string("socket() failed: ") +
                                   std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    const int err = errno;
    ::close(fd);
    fd = -1;
    // Rank 0 may simply not have bound yet (process launch order is
    // arbitrary): keep knocking until the connect timeout.
    if (err != ENOENT && err != ECONNREFUSED && err != EINTR) {
      return util::Status::IoError("connect(" + options_.rendezvous +
                                   ") failed: " + std::strerror(err));
    }
    if (NowUs() > deadline) {
      return util::Status::DeadlineExceeded(
          "rendezvous: rank " + std::to_string(options_.rank) +
          " could not reach the root at " + options_.rendezvous +
          " within the connect timeout");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  fds_.assign(1, fd);
  wire::Header hello;
  hello.op = wire::Op::kHello;
  hello.rank = uint16_t(options_.rank);
  hello.seq = 0;
  const uint32_t world = uint32_t(options_.world_size);
  hello.payload_bytes = sizeof(world);
  ANGEL_RETURN_IF_ERROR(wire::SendFrame(fd, hello, &world));
  wire::Header welcome;
  std::vector<std::byte> payload;
  ANGEL_RETURN_IF_ERROR(wire::RecvFrame(fd, &welcome, &payload, 0,
                                        options_.connect_timeout_ms));
  if (welcome.op != wire::Op::kWelcome) {
    return util::Status::Internal("rendezvous: expected a welcome frame");
  }
  return util::Status::OK();
}

util::Status ProcessGroup::SendChecked(int fd, uint16_t op, uint32_t seq,
                                       const void* payload, size_t bytes) {
  wire::Header header;
  header.op = wire::Op(op);
  header.rank = uint16_t(options_.rank);
  header.seq = seq;
  header.payload_bytes = bytes;
  ANGEL_RETURN_IF_ERROR(RetryFrame([&] {
    auto& injector = util::FaultInjector::Instance();
    const util::Status fault =
        injector.enabled() ? injector.Check("pg.send") : util::Status::OK();
    return fault.ok() ? wire::SendFrame(fd, header, payload) : fault;
  }));
  stats_.bytes_sent += wire::kHeaderBytes + bytes;
  return util::Status::OK();
}

util::Status ProcessGroup::RecvChecked(int fd, uint16_t expect_op,
                                       uint32_t expect_seq,
                                       uint16_t expect_rank,
                                       size_t max_bytes,
                                       std::vector<std::byte>* payload) {
  wire::Header header;
  ANGEL_RETURN_IF_ERROR(RetryFrame([&] {
    auto& injector = util::FaultInjector::Instance();
    const util::Status fault =
        injector.enabled() ? injector.Check("pg.recv") : util::Status::OK();
    return fault.ok() ? wire::RecvFrame(fd, &header, payload, max_bytes,
                                        options_.io_timeout_ms)
                      : fault;
  }));
  if (uint16_t(header.op) != expect_op) {
    return util::Status::Internal(
        "collective protocol error: expected op " +
        std::to_string(expect_op) + ", got " +
        std::to_string(uint16_t(header.op)));
  }
  if (header.seq != expect_seq) {
    return util::Status::Internal(
        "collective sequence mismatch: expected " +
        std::to_string(expect_seq) + ", got " + std::to_string(header.seq) +
        " (ranks out of step)");
  }
  if (header.rank != expect_rank) {
    return util::Status::Internal(
        "collective protocol error: frame from rank " +
        std::to_string(header.rank) + ", expected rank " +
        std::to_string(expect_rank));
  }
  stats_.bytes_received += wire::kHeaderBytes + payload->size();
  return util::Status::OK();
}

util::Status ProcessGroup::HubCollect(uint16_t op, const void* send,
                                      size_t bytes) {
  gathered_[0].resize(bytes);
  if (bytes > 0) std::memcpy(gathered_[0].data(), send, bytes);
  for (int r = 1; r < options_.world_size; ++r) {
    ANGEL_RETURN_IF_ERROR(
        RecvChecked(fds_[r], op, seq_, uint16_t(r), bytes, &gathered_[r]));
    if (gathered_[r].size() != bytes) {
      return util::Status::Internal(
          "collective size mismatch: rank " + std::to_string(r) + " sent " +
          std::to_string(gathered_[r].size()) + " bytes, expected " +
          std::to_string(bytes));
    }
  }
  return util::Status::OK();
}

util::Status ProcessGroup::PeerExchange(uint16_t op, const void* send,
                                        size_t bytes, size_t reply_bytes,
                                        std::vector<std::byte>* reply) {
  ANGEL_RETURN_IF_ERROR(SendChecked(fds_[0], op, seq_, send, bytes));
  return RecvChecked(fds_[0], uint16_t(wire::Op::kResult), seq_, 0,
                     reply_bytes, reply);
}

util::Status ProcessGroup::AllGatherBytes(const void* send, size_t bytes,
                                          void* recv) {
  const int64_t start = NowUs();
  const int world = options_.world_size;
  if (world == 1) {
    if (bytes > 0) std::memcpy(recv, send, bytes);
    ++stats_.collectives;
    return util::Status::OK();
  }
  auto* out = static_cast<std::byte*>(recv);
  if (options_.rank == 0) {
    ANGEL_RETURN_IF_ERROR(
        HubCollect(uint16_t(wire::Op::kAllGather), send, bytes));
    for (int r = 0; r < world; ++r) {
      if (bytes > 0) {
        std::memcpy(out + size_t(r) * bytes, gathered_[r].data(), bytes);
      }
    }
    for (int r = 1; r < world; ++r) {
      ANGEL_RETURN_IF_ERROR(SendChecked(fds_[r],
                                        uint16_t(wire::Op::kResult), seq_,
                                        out, size_t(world) * bytes));
    }
  } else {
    std::vector<std::byte> reply;
    ANGEL_RETURN_IF_ERROR(
        PeerExchange(uint16_t(wire::Op::kAllGather), send, bytes,
                     size_t(world) * bytes, &reply));
    if (reply.size() != size_t(world) * bytes) {
      return util::Status::Internal("all-gather result size mismatch");
    }
    if (!reply.empty()) std::memcpy(out, reply.data(), reply.size());
  }
  ++seq_;
  ++stats_.collectives;
  stats_.collective_us += uint64_t(NowUs() - start);
  return util::Status::OK();
}

util::Status ProcessGroup::AllGather(const float* send, size_t count,
                                     float* recv) {
  return AllGatherBytes(send, count * sizeof(float), recv);
}

util::Status ProcessGroup::ReduceScatter(const float* send,
                                         size_t total_count, float* recv) {
  const int64_t start = NowUs();
  const int world = options_.world_size;
  if (total_count % size_t(world) != 0) {
    return util::Status::InvalidArgument(
        "reduce-scatter count not divisible by world size");
  }
  const size_t chunk = total_count / size_t(world);
  if (world == 1) {
    // Sum of one rank, same arithmetic as the multi-rank path.
    for (size_t i = 0; i < chunk; ++i) recv[i] = float(double(send[i]));
    ++stats_.collectives;
    return util::Status::OK();
  }
  const size_t bytes = total_count * sizeof(float);
  if (options_.rank == 0) {
    ANGEL_RETURN_IF_ERROR(
        HubCollect(uint16_t(wire::Op::kReduceScatter), send, bytes));
    // Reduce chunk by chunk, ranks ascending, double accumulator — the
    // exact arithmetic of Communicator::ReduceScatter, so socket and
    // in-process backends agree bitwise.
    std::vector<float> reduced(total_count);
    for (size_t i = 0; i < total_count; ++i) {
      double sum = 0.0;
      for (int r = 0; r < world; ++r) {
        float v;
        std::memcpy(&v, gathered_[r].data() + i * sizeof(float),
                    sizeof(float));
        sum += v;
      }
      reduced[i] = float(sum);
    }
    std::memcpy(recv, reduced.data(), chunk * sizeof(float));
    for (int r = 1; r < world; ++r) {
      ANGEL_RETURN_IF_ERROR(
          SendChecked(fds_[r], uint16_t(wire::Op::kResult), seq_,
                      reduced.data() + size_t(r) * chunk,
                      chunk * sizeof(float)));
    }
  } else {
    std::vector<std::byte> reply;
    ANGEL_RETURN_IF_ERROR(PeerExchange(uint16_t(wire::Op::kReduceScatter),
                                       send, bytes, chunk * sizeof(float),
                                       &reply));
    if (reply.size() != chunk * sizeof(float)) {
      return util::Status::Internal("reduce-scatter result size mismatch");
    }
    std::memcpy(recv, reply.data(), reply.size());
  }
  ++seq_;
  ++stats_.collectives;
  stats_.collective_us += uint64_t(NowUs() - start);
  return util::Status::OK();
}

util::Status ProcessGroup::AllReduce(float* data, size_t count) {
  const int64_t start = NowUs();
  const int world = options_.world_size;
  if (world == 1) {
    for (size_t i = 0; i < count; ++i) data[i] = float(double(data[i]));
    ++stats_.collectives;
    return util::Status::OK();
  }
  const size_t bytes = count * sizeof(float);
  if (options_.rank == 0) {
    ANGEL_RETURN_IF_ERROR(
        HubCollect(uint16_t(wire::Op::kAllReduce), data, bytes));
    std::vector<float> reduced(count);
    for (size_t i = 0; i < count; ++i) {
      double sum = 0.0;
      for (int r = 0; r < world; ++r) {
        float v;
        std::memcpy(&v, gathered_[r].data() + i * sizeof(float),
                    sizeof(float));
        sum += v;
      }
      reduced[i] = float(sum);
    }
    std::memcpy(data, reduced.data(), bytes);
    for (int r = 1; r < world; ++r) {
      ANGEL_RETURN_IF_ERROR(SendChecked(fds_[r],
                                        uint16_t(wire::Op::kResult), seq_,
                                        reduced.data(), bytes));
    }
  } else {
    std::vector<std::byte> reply;
    ANGEL_RETURN_IF_ERROR(
        PeerExchange(uint16_t(wire::Op::kAllReduce), data, bytes, bytes,
                     &reply));
    if (reply.size() != bytes) {
      return util::Status::Internal("all-reduce result size mismatch");
    }
    std::memcpy(data, reply.data(), bytes);
  }
  ++seq_;
  ++stats_.collectives;
  stats_.collective_us += uint64_t(NowUs() - start);
  return util::Status::OK();
}

util::Status ProcessGroup::Barrier() {
  const int world = options_.world_size;
  if (world == 1) {
    ++stats_.collectives;
    return util::Status::OK();
  }
  if (options_.rank == 0) {
    ANGEL_RETURN_IF_ERROR(
        HubCollect(uint16_t(wire::Op::kBarrier), nullptr, 0));
    for (int r = 1; r < world; ++r) {
      ANGEL_RETURN_IF_ERROR(SendChecked(
          fds_[r], uint16_t(wire::Op::kResult), seq_, nullptr, 0));
    }
  } else {
    std::vector<std::byte> reply;
    ANGEL_RETURN_IF_ERROR(
        PeerExchange(uint16_t(wire::Op::kBarrier), nullptr, 0, 0, &reply));
  }
  ++seq_;
  ++stats_.collectives;
  return util::Status::OK();
}

}  // namespace angelptm::dist
