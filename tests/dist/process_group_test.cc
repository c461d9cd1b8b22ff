// Property and contract tests for dist::ProcessGroup. Instances are
// independent, so a whole world runs as threads of this process over real
// Unix-domain sockets — 50+ random layouts stay fast, and the TSan CI leg
// covers the transport.

#include "dist/process_group.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "core/communicator.h"
#include "mem/wire_format.h"
#include "util/fault_injector.h"
#include "util/half.h"
#include "util/random.h"

namespace angelptm::dist {
namespace {

std::string RendezvousPath(const std::string& tag) {
  // Short and unique: sun_path is ~107 bytes, and parallel tests must not
  // collide.
  return "/tmp/aptm-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

/// Connects a world of `world` ProcessGroups on rank threads and runs
/// `body(rank, group)` on each; returns per-rank statuses (Connect errors
/// included).
std::vector<util::Status> RunWorld(
    int world, const std::string& path,
    const std::function<util::Status(int, ProcessGroup*)>& body) {
  std::vector<util::Status> statuses(static_cast<size_t>(world), util::Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      ProcessGroupOptions options;
      options.rank = r;
      options.world_size = world;
      options.rendezvous = path;
      auto group = ProcessGroup::Connect(options);
      if (!group.ok()) {
        statuses[size_t(r)] = group.status();
        return;
      }
      statuses[size_t(r)] = body(r, group->get());
    });
  }
  for (auto& t : threads) t.join();
  return statuses;
}

/// Each rank's results of an AllGather, a ReduceScatter and an AllReduce
/// of rank-seeded data on a `world`-rank socket world, concatenated.
/// Fails the test when a rank's collectives fail.
std::vector<std::vector<float>> CollectiveResults(int world,
                                                  const std::string& path) {
  constexpr size_t kShard = 33;
  std::vector<std::vector<float>> results(static_cast<size_t>(world));
  const auto statuses =
      RunWorld(world, path, [&](int r, ProcessGroup* group) -> util::Status {
        util::Rng rng(uint64_t(100 + r));
        std::vector<float> shard(kShard);
        for (float& v : shard) v = float(rng.NextDouble() * 2.0 - 1.0);
        std::vector<float> gathered(kShard * size_t(world));
        ANGEL_RETURN_IF_ERROR(
            group->AllGather(shard.data(), kShard, gathered.data()));
        std::vector<float> scattered(kShard);
        ANGEL_RETURN_IF_ERROR(group->ReduceScatter(
            gathered.data(), gathered.size(), scattered.data()));
        ANGEL_RETURN_IF_ERROR(group->AllReduce(shard.data(), kShard));
        std::vector<float>& out = results[size_t(r)];
        out = gathered;
        out.insert(out.end(), scattered.begin(), scattered.end());
        out.insert(out.end(), shard.begin(), shard.end());
        return util::Status::OK();
      });
  for (int r = 0; r < world; ++r) {
    EXPECT_TRUE(statuses[size_t(r)].ok())
        << "rank " << r << ": " << statuses[size_t(r)];
  }
  return results;
}

/// One injected fault at `site` (an nth:1 rule) is absorbed by a retry:
/// every collective succeeds, bit for bit equal to an unfaulted run.
void ExpectOneFaultAbsorbed(const char* site, const std::string& tag) {
  const int world = 4;
  const std::string path = RendezvousPath(tag);
  const std::vector<std::vector<float>> clean = CollectiveResults(world, path);
  util::FaultInjector& faults = util::FaultInjector::Instance();
  util::FaultRule once;
  once.nth_call = 1;
  faults.Arm(site, once);
  const std::vector<std::vector<float>> faulted =
      CollectiveResults(world, path);
  EXPECT_EQ(faults.fires(site), 1u);
  faults.Disarm(site);
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(faulted[size_t(r)].size(), clean[size_t(r)].size());
    EXPECT_EQ(std::memcmp(faulted[size_t(r)].data(), clean[size_t(r)].data(),
                          clean[size_t(r)].size() * sizeof(float)),
              0)
        << "rank " << r << " results differ after a " << site << " fault";
  }
}

TEST(ProcessGroupTest, ConnectValidatesOptions) {
  ProcessGroupOptions options;
  options.world_size = 0;
  EXPECT_TRUE(ProcessGroup::Connect(options).status().IsInvalidArgument());

  options.world_size = 4;
  options.rank = 4;
  options.rendezvous = "/tmp/x.sock";
  EXPECT_TRUE(ProcessGroup::Connect(options).status().IsInvalidArgument());

  options.rank = 2;
  options.rendezvous = "";
  EXPECT_TRUE(ProcessGroup::Connect(options).status().IsInvalidArgument());
}

TEST(ProcessGroupTest, WorldOfOneNeedsNoSocket) {
  ProcessGroupOptions options;
  options.world_size = 1;
  auto group = ProcessGroup::Connect(options);
  ASSERT_TRUE(group.ok()) << group.status();
  float x = 3.5f;
  float out = 0.0f;
  ASSERT_TRUE((*group)->AllGather(&x, 1, &out).ok());
  EXPECT_EQ(out, 3.5f);
  ASSERT_TRUE((*group)->AllReduce(&x, 1).ok());
  EXPECT_EQ(x, 3.5f);
  ASSERT_TRUE((*group)->Barrier().ok());
  EXPECT_EQ((*group)->collectives_completed(), 3u);
}

// The core property: over 50+ random (world_size, shard_size, dtype)
// layouts, socket collectives return byte-identical results to the
// in-process core::Communicator — including ragged tails (shards whose
// meaningful elements end mid-shard, zero-padded like ShardedDataParallel
// pads) and fp16 payloads through the byte path.
TEST(ProcessGroupTest, RandomLayoutsMatchCommunicatorBitwise) {
  util::Rng rng(20260809);
  const std::string path = RendezvousPath("prop");
  int layouts = 0;
  for (int round = 0; round < 18; ++round) {
    const int world = 1 + int(rng.Next() % 5);  // 1..5 ranks.
    const size_t shard = rng.Next() % 257;      // 0..256 elements.
    // Ragged tail: the real sharder pads the last shard with zeros; make
    // some rounds end mid-shard so the tail is partially meaningful.
    const size_t ragged_valid = shard > 0 ? rng.Next() % shard : 0;

    // Per-rank input shards; the last rank's tail is zero-padded.
    std::vector<std::vector<float>> shards(static_cast<size_t>(world));
    for (int r = 0; r < world; ++r) {
      shards[size_t(r)].resize(shard);
      for (float& v : shards[size_t(r)]) {
        v = float(rng.NextDouble() * 2.0 - 1.0);
      }
    }
    if (shard > 0) {
      for (size_t i = ragged_valid; i < shard; ++i) {
        shards[size_t(world - 1)][i] = 0.0f;
      }
    }

    // Reference results from the in-process Communicator.
    core::Communicator reference(world);
    std::vector<std::vector<float>> want_gather(
        static_cast<size_t>(world), std::vector<float>(shard * static_cast<size_t>(world)));
    std::vector<std::vector<float>> want_scatter(static_cast<size_t>(world),
                                                 std::vector<float>(shard));
    const size_t total = shard * static_cast<size_t>(world);
    {
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          ASSERT_TRUE(reference
                          .AllGather(r, shards[size_t(r)].data(), shard,
                                     want_gather[size_t(r)].data())
                          .ok());
          // Reduce-scatter input: every rank contributes its gathered
          // view (arbitrary but rank-dependent data).
          ASSERT_TRUE(reference
                          .ReduceScatter(r, want_gather[size_t(r)].data(),
                                         total,
                                         want_scatter[size_t(r)].data())
                          .ok());
        });
      }
      for (auto& t : threads) t.join();
    }

    // Same collectives over sockets.
    std::vector<std::vector<float>> got_gather(
        static_cast<size_t>(world), std::vector<float>(shard * static_cast<size_t>(world)));
    std::vector<std::vector<float>> got_scatter(static_cast<size_t>(world),
                                                std::vector<float>(shard));
    auto statuses = RunWorld(
        world, path, [&](int r, ProcessGroup* group) -> util::Status {
          ANGEL_RETURN_IF_ERROR(group->AllGather(
              shards[size_t(r)].data(), shard, got_gather[size_t(r)].data()));
          return group->ReduceScatter(got_gather[size_t(r)].data(), total,
                                      got_scatter[size_t(r)].data());
        });
    for (int r = 0; r < world; ++r) {
      ASSERT_TRUE(statuses[size_t(r)].ok())
          << "rank " << r << ": " << statuses[size_t(r)];
      ASSERT_EQ(std::memcmp(got_gather[size_t(r)].data(),
                            want_gather[size_t(r)].data(),
                            total * sizeof(float)),
                0)
          << "all-gather bits differ, world " << world << " shard " << shard;
      ASSERT_EQ(std::memcmp(got_scatter[size_t(r)].data(),
                            want_scatter[size_t(r)].data(),
                            shard * sizeof(float)),
                0)
          << "reduce-scatter bits differ, world " << world << " shard "
          << shard;
      ++layouts;
    }

    // fp16 leg: the byte path must round-trip half-precision payloads
    // (and, with odd element counts, odd byte counts) untouched.
    const size_t halves = rng.Next() % 33;
    std::vector<std::vector<uint16_t>> half_shards(static_cast<size_t>(world));
    for (int r = 0; r < world; ++r) {
      half_shards[size_t(r)].resize(halves);
      for (uint16_t& h : half_shards[size_t(r)]) {
        h = util::FloatToHalfBits(float(rng.NextDouble()));
      }
    }
    std::vector<std::vector<uint16_t>> got_halves(
        static_cast<size_t>(world), std::vector<uint16_t>(halves * static_cast<size_t>(world)));
    statuses = RunWorld(
        world, path, [&](int r, ProcessGroup* group) -> util::Status {
          return group->AllGatherBytes(half_shards[size_t(r)].data(),
                                       halves * sizeof(uint16_t),
                                       got_halves[size_t(r)].data());
        });
    for (int r = 0; r < world; ++r) {
      ASSERT_TRUE(statuses[size_t(r)].ok()) << statuses[size_t(r)];
      for (int src = 0; src < world; ++src) {
        ASSERT_EQ(std::memcmp(got_halves[size_t(r)].data() +
                                  size_t(src) * halves,
                              half_shards[size_t(src)].data(),
                              halves * sizeof(uint16_t)),
                  0);
      }
      ++layouts;
    }
  }
  // 18 rounds x (fp32 + fp16) x avg 3 ranks: comfortably past the 50+
  // layout floor the harness promises.
  EXPECT_GE(layouts, 50);
}

TEST(ProcessGroupTest, AllReduceMatchesCommunicator) {
  util::Rng rng(7);
  const std::string path = RendezvousPath("ar");
  const int world = 4;
  const size_t count = 129;
  std::vector<std::vector<float>> data(static_cast<size_t>(world),
                                       std::vector<float>(count));
  for (auto& rank_data : data) {
    for (float& v : rank_data) v = float(rng.NextDouble() * 10 - 5);
  }

  core::Communicator reference(world);
  std::vector<std::vector<float>> want = data;
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        ASSERT_TRUE(
            reference.AllReduce(r, want[size_t(r)].data(), count).ok());
      });
    }
    for (auto& t : threads) t.join();
  }

  std::vector<std::vector<float>> got = data;
  auto statuses =
      RunWorld(world, path, [&](int r, ProcessGroup* group) -> util::Status {
        return group->AllReduce(got[size_t(r)].data(), count);
      });
  for (int r = 0; r < world; ++r) {
    ASSERT_TRUE(statuses[size_t(r)].ok()) << statuses[size_t(r)];
    EXPECT_EQ(std::memcmp(got[size_t(r)].data(), want[size_t(r)].data(),
                          count * sizeof(float)),
              0);
  }
}

TEST(ProcessGroupTest, NonDivisibleReduceScatterRejected) {
  const std::string path = RendezvousPath("nd");
  auto statuses =
      RunWorld(2, path, [&](int, ProcessGroup* group) -> util::Status {
        std::vector<float> send(5, 1.0f);  // 5 % 2 != 0.
        std::vector<float> recv(3);
        const util::Status status =
            group->ReduceScatter(send.data(), send.size(), recv.data());
        // Both ranks reject locally, before any wire traffic, so the
        // group stays usable afterwards.
        if (!status.IsInvalidArgument()) {
          return util::Status::Internal("expected InvalidArgument, got " +
                                        status.ToString());
        }
        return group->Barrier();
      });
  for (const auto& status : statuses) {
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(ProcessGroupTest, PeerDeathSurfacesAsPeerLoss) {
  const std::string path = RendezvousPath("pl");
  auto statuses =
      RunWorld(2, path, [&](int r, ProcessGroup* group) -> util::Status {
        if (r == 1) {
          // Rank 1 "dies" right after rendezvous: its ProcessGroup (and
          // socket) is torn down on return.
          return util::Status::OK();
        }
        // Rank 0's next collective hits the closed connection.
        std::vector<float> data(8, 1.0f);
        return group->AllReduce(data.data(), data.size());
      });
  EXPECT_TRUE(statuses[1].ok());
  ASSERT_FALSE(statuses[0].ok());
  EXPECT_TRUE(ProcessGroup::IsPeerLoss(statuses[0])) << statuses[0];
  EXPECT_FALSE(ProcessGroup::IsPeerLoss(util::Status::OK()));
  EXPECT_FALSE(
      ProcessGroup::IsPeerLoss(util::Status::IoError("disk on fire")));
}

TEST(ProcessGroupTest, OneSendFaultIsRetriedAndResultsMatchBitwise) {
  ExpectOneFaultAbsorbed("pg.send", "sf");
}

TEST(ProcessGroupTest, OneRecvFaultIsRetriedAndResultsMatchBitwise) {
  ExpectOneFaultAbsorbed("pg.recv", "rf");
}

TEST(ProcessGroupTest, PeerLossFailsAfterOneAttempt) {
  // A rule with no trigger never fires; it only counts rank 0's receive
  // attempts. Peer loss is fail-stop, so the receive from the closed
  // socket is attempted once, not retried.
  util::FaultInjector& faults = util::FaultInjector::Instance();
  faults.Arm("pg.recv", util::FaultRule());
  const std::string path = RendezvousPath("pl1");
  auto statuses =
      RunWorld(2, path, [&](int r, ProcessGroup* group) -> util::Status {
        if (r == 1) return util::Status::OK();  // Closes its socket.
        std::vector<float> data(8, 1.0f);
        return group->AllReduce(data.data(), data.size());
      });
  const uint64_t attempts = faults.calls("pg.recv");
  faults.Disarm("pg.recv");
  ASSERT_FALSE(statuses[0].ok());
  EXPECT_TRUE(ProcessGroup::IsPeerLoss(statuses[0])) << statuses[0];
  EXPECT_EQ(attempts, 1u);
}

TEST(ProcessGroupTest, RootRejectsOversizeHello) {
  // The root reads a hello header from anything that connects to the
  // rendezvous socket. One claiming 2^40 payload bytes must fail the
  // rendezvous with a Status before the root allocates anything.
  const std::string path = RendezvousPath("oh");
  util::Status root_status;
  std::thread root([&] {
    ProcessGroupOptions options;
    options.rank = 0;
    options.world_size = 2;
    options.rendezvous = path;
    options.connect_timeout_ms = 5000;
    root_status = ProcessGroup::Connect(options).status();
  });
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = -1;
  for (int attempt = 0; attempt < 1000 && fd < 0; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_GE(fd, 0) << "root never bound " << path;
  if (fd >= 0) {
    mem::wire::Header hello;
    hello.op = mem::wire::Op::kHello;
    hello.rank = 1;
    hello.payload_bytes = uint64_t{1} << 40;
    std::byte head[mem::wire::kHeaderBytes];
    mem::wire::EncodeHeader(hello, head);
    EXPECT_EQ(::write(fd, head, sizeof(head)), ssize_t(sizeof(head)));
  }
  root.join();
  if (fd >= 0) ::close(fd);
  EXPECT_TRUE(root_status.IsInvalidArgument()) << root_status;
}

TEST(ProcessGroupTest, StatsCountTraffic) {
  const std::string path = RendezvousPath("st");
  const int world = 3;
  std::vector<ProcessGroup::Stats> stats(static_cast<size_t>(world));
  auto statuses =
      RunWorld(world, path, [&](int r, ProcessGroup* group) -> util::Status {
        std::vector<float> shard(16, float(r));
        std::vector<float> out(16 * static_cast<size_t>(world));
        ANGEL_RETURN_IF_ERROR(group->AllGather(shard.data(), 16, out.data()));
        ANGEL_RETURN_IF_ERROR(group->Barrier());
        stats[size_t(r)] = group->GetStats();
        return util::Status::OK();
      });
  for (int r = 0; r < world; ++r) {
    ASSERT_TRUE(statuses[size_t(r)].ok()) << statuses[size_t(r)];
    EXPECT_EQ(stats[size_t(r)].collectives, 2u);
    EXPECT_GT(stats[size_t(r)].bytes_sent, 0u);
    EXPECT_GT(stats[size_t(r)].bytes_received, 0u);
  }
}

TEST(ProcessGroupTest, OptionsFromEnv) {
  ::setenv("ANGEL_RANK", "2", 1);
  ::setenv("ANGEL_WORLD_SIZE", "4", 1);
  ::setenv("ANGEL_RENDEZVOUS", "/tmp/aptm-env.sock", 1);
  auto options = ProcessGroup::OptionsFromEnv();
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->rank, 2);
  EXPECT_EQ(options->world_size, 4);
  EXPECT_EQ(options->rendezvous, "/tmp/aptm-env.sock");

  ::setenv("ANGEL_RANK", "7", 1);  // Out of the world's range.
  EXPECT_TRUE(ProcessGroup::OptionsFromEnv().status().IsInvalidArgument());

  ::unsetenv("ANGEL_RANK");
  ::unsetenv("ANGEL_WORLD_SIZE");
  ::unsetenv("ANGEL_RENDEZVOUS");
  EXPECT_FALSE(ProcessGroup::OptionsFromEnv().ok());
}

}  // namespace
}  // namespace angelptm::dist
