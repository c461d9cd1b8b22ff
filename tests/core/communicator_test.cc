#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/communicator.h"

namespace angelptm::core {
namespace {

class CommunicatorTest : public ::testing::TestWithParam<int> {};

TEST_P(CommunicatorTest, AllGatherDeliversEveryShard) {
  const int world = GetParam();
  Communicator comm(world);
  constexpr size_t kCount = 8;
  std::vector<std::vector<float>> recv(world,
                                       std::vector<float>(world * kCount));
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      std::vector<float> send(kCount);
      for (size_t i = 0; i < kCount; ++i) send[i] = float(r * 100 + i);
      ASSERT_TRUE(comm.AllGather(r, send.data(), kCount, recv[r].data()).ok());
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < world; ++r) {
    for (int p = 0; p < world; ++p) {
      for (size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(recv[r][p * kCount + i], float(p * 100 + i));
      }
    }
  }
}

TEST_P(CommunicatorTest, ReduceScatterSumsChunks) {
  const int world = GetParam();
  Communicator comm(world);
  const size_t total = size_t(world) * 4;
  std::vector<std::vector<float>> recv(world, std::vector<float>(4));
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      std::vector<float> send(total);
      for (size_t i = 0; i < total; ++i) send[i] = float(i) + r;
      ASSERT_TRUE(
          comm.ReduceScatter(r, send.data(), total, recv[r].data()).ok());
    });
  }
  for (auto& t : ranks) t.join();
  const float rank_sum = float(world * (world - 1)) / 2;
  for (int r = 0; r < world; ++r) {
    for (size_t i = 0; i < 4; ++i) {
      const float expected = float(r * 4 + i) * world + rank_sum;
      EXPECT_FLOAT_EQ(recv[r][i], expected) << "rank " << r << " idx " << i;
    }
  }
}

TEST_P(CommunicatorTest, AllReduceSumsInPlace) {
  const int world = GetParam();
  Communicator comm(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(6));
  for (int r = 0; r < world; ++r) {
    for (size_t i = 0; i < 6; ++i) data[r][i] = float(r + 1);
  }
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      ASSERT_TRUE(comm.AllReduce(r, data[r].data(), 6).ok());
    });
  }
  for (auto& t : ranks) t.join();
  const float expected = float(world * (world + 1)) / 2;
  for (int r = 0; r < world; ++r) {
    for (size_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(data[r][i], expected);
  }
}

TEST_P(CommunicatorTest, AllToAllTransposesChunks) {
  const int world = GetParam();
  Communicator comm(world);
  constexpr size_t kChunk = 3;
  std::vector<std::vector<float>> recv(world,
                                       std::vector<float>(world * kChunk));
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      std::vector<float> send(world * kChunk);
      for (int p = 0; p < world; ++p) {
        for (size_t i = 0; i < kChunk; ++i) {
          send[p * kChunk + i] = float(r * 1000 + p * 10 + i);
        }
      }
      ASSERT_TRUE(comm.AllToAll(r, send.data(), kChunk, recv[r].data()).ok());
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < world; ++r) {
    for (int p = 0; p < world; ++p) {
      for (size_t i = 0; i < kChunk; ++i) {
        // Rank r's chunk p came from rank p's chunk r.
        EXPECT_EQ(recv[r][p * kChunk + i], float(p * 1000 + r * 10 + i));
      }
    }
  }
}

TEST_P(CommunicatorTest, RepeatedCollectivesDoNotDeadlock) {
  const int world = GetParam();
  Communicator comm(world);
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      std::vector<float> data(4, float(r));
      for (int iter = 0; iter < 25; ++iter) {
        ASSERT_TRUE(comm.AllReduce(r, data.data(), 4).ok());
      }
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_GE(comm.collectives_completed(), 25u);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CommunicatorTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(CommunicatorTest, BadRankRejected) {
  Communicator comm(2);
  float x = 0;
  EXPECT_TRUE(comm.AllReduce(2, &x, 1).IsInvalidArgument());
  EXPECT_TRUE(comm.AllReduce(-1, &x, 1).IsInvalidArgument());
}

TEST(CommunicatorTest, AbortWakesWaitingRanksAndFailsLaterCollectives) {
  // Rank 2 of 3 never arrives. Ranks 0 and 1 wait in an all-reduce until
  // rank 2 aborts the group; that collective and every later one return
  // Cancelled naming rank 2, and none completes.
  Communicator comm(3);
  std::vector<util::Status> statuses(2);
  std::vector<float> data(2, 1.0f);
  std::vector<std::thread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back(
        [&, r] { statuses[r] = comm.AllReduce(r, &data[r], 1); });
  }
  // Either way the ranks fail; the pause lets them block first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  comm.Abort(2);
  for (auto& t : ranks) t.join();
  for (const util::Status& status : statuses) {
    EXPECT_EQ(status.code(), util::StatusCode::kCancelled) << status;
    EXPECT_NE(status.message().find("rank 2"), std::string::npos) << status;
  }
  EXPECT_EQ(data, std::vector<float>(2, 1.0f));
  comm.Abort(0);  // The first abort wins.
  EXPECT_EQ(comm.aborted_by(), 2);
  float x = 0.0f, y[3] = {};
  EXPECT_EQ(comm.AllGather(0, &x, 1, y).code(), util::StatusCode::kCancelled);
  EXPECT_EQ(comm.collectives_completed(), 0u);
}

TEST(CommunicatorTest, ReduceScatterRequiresDivisibleCount) {
  Communicator comm(2);
  // Run from two threads to avoid deadlocking on the validation-only path.
  float send[3] = {1, 2, 3};
  float recv[2];
  EXPECT_TRUE(comm.ReduceScatter(0, send, 3, recv).IsInvalidArgument());
}

}  // namespace
}  // namespace angelptm::core
