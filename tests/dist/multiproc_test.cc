// Real multi-process integration tests: N forked angel_worker ranks over
// Unix-domain sockets, driven by the ProcHarness fixture. These are the
// acceptance tests of DESIGN.md §14 — socket training is bitwise-identical
// to in-process training, and a SIGKILLed rank gang-restarts from the
// latest shard checkpoint onto the same trajectory.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "dist/proc_harness.h"
#include "dist/sharded_data_parallel.h"

namespace angelptm {
namespace {

namespace fs = std::filesystem;

class MultiProcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char pattern[] = "/tmp/aptm-mp-XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    dir_ = pattern;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Rendezvous(const std::string& tag) const {
    return dir_ + "/" + tag + ".sock";
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  /// argv for one pg-mode worker rank.
  static testing::ProcSpec WorkerSpec(
      int rank, int world, const std::string& rendezvous,
      const std::vector<std::string>& extra) {
    testing::ProcSpec spec;
    spec.argv = {testing::WorkerBinary(),
                 "--rank=" + std::to_string(rank),
                 "--world=" + std::to_string(world),
                 "--rendezvous=" + rendezvous};
    spec.argv.insert(spec.argv.end(), extra.begin(), extra.end());
    return spec;
  }

  std::string dir_;
};

// Acceptance criterion 1: a 4-rank multi-process run produces bitwise
// identical losses, validation loss, and final parameters to the
// single-process run (both on a pinned 1-thread compute pool; both result
// files spell every float as raw bits, so equality is string equality).
TEST_F(MultiProcTest, FourRankBitwiseMatchesSingleProcess) {
  const std::string reference_file = dir_ + "/inproc.txt";
  const std::string socket_file = dir_ + "/pg.txt";
  const std::vector<std::string> shape = {"--steps=8", "--seed=424242",
                                          "--batch-per-rank=4"};

  // Reference: the whole 4-rank world in one process (thread backend).
  {
    testing::ProcHarness harness;
    testing::ProcSpec spec;
    spec.argv = {testing::WorkerBinary(), "--backend=inproc", "--world=4",
                 "--result-file=" + reference_file};
    spec.argv.insert(spec.argv.end(), shape.begin(), shape.end());
    harness.Launch({spec});
    const auto results = harness.WaitAll(60000);
    ASSERT_EQ(results[0].exit_code, 0) << harness.output(0);
  }

  // Same job as 4 real processes over sockets.
  {
    testing::ProcHarness harness;
    std::vector<testing::ProcSpec> specs;
    for (int r = 0; r < 4; ++r) {
      auto extra = shape;
      if (r == 0) extra.push_back("--result-file=" + socket_file);
      specs.push_back(WorkerSpec(r, 4, Rendezvous("bitwise"), extra));
    }
    harness.Launch(specs);
    const auto results = harness.WaitAll(60000);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(results[r].exit_code, 0)
          << "rank " << r << ":\n" << harness.output(r);
    }
  }

  const std::string reference = ReadFile(reference_file);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, ReadFile(socket_file))
      << "socket run diverged from the in-process run";
}

// Acceptance criterion 2: SIGKILL one rank mid-training; the survivors
// detect the loss (exit 42), a gang restart resumes every rank from the
// newest step all ranks have on disk, and the recovered run lands on the
// fault-free twin's exact final parameters.
TEST_F(MultiProcTest, KillOneRankRecoversFromCheckpoint) {
  const int world = 4;
  const int steps = 60;
  const int every = 4;
  // Big enough layers + single-thread compute to keep the job running for
  // hundreds of milliseconds: the kill below must land mid-training.
  const std::vector<std::string> shape = {
      "--steps=" + std::to_string(steps), "--seed=99",
      "--batch-per-rank=16",  "--dims=64,128,128,64,8"};

  // Fault-free twin (in-process; bitwise-equal to a fault-free 4-rank
  // socket run by the previous test's property).
  const std::string twin_file = dir_ + "/twin.txt";
  {
    testing::ProcHarness harness;
    testing::ProcSpec spec;
    spec.argv = {testing::WorkerBinary(), "--backend=inproc",
                 "--world=" + std::to_string(world),
                 "--result-file=" + twin_file};
    spec.argv.insert(spec.argv.end(), shape.begin(), shape.end());
    harness.Launch({spec});
    ASSERT_EQ(harness.WaitAll(120000)[0].exit_code, 0) << harness.output(0);
  }

  const std::string ckpt_dir = dir_ + "/ckpt";
  const std::string result_file = dir_ + "/recovered.txt";
  auto specs_for = [&](bool with_result) {
    std::vector<testing::ProcSpec> specs;
    for (int r = 0; r < world; ++r) {
      std::vector<std::string> extra = shape;
      extra.push_back("--checkpoint-dir=" + ckpt_dir);
      extra.push_back("--checkpoint-every=" + std::to_string(every));
      if (with_result && r == 0) {
        extra.push_back("--result-file=" + result_file);
      }
      specs.push_back(WorkerSpec(r, world, Rendezvous("recover"), extra));
    }
    return specs;
  };

  // Run 1: launch, wait until rank 1 has completed at least 2 checkpoint
  // intervals (its step-8 shard file exists), then SIGKILL it.
  const int victim = 1;
  {
    testing::ProcHarness harness;
    harness.Launch(specs_for(false));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    const core::CheckpointFiles victim_files{
        ckpt_dir, dist::ShardCheckpointStem(world, victim)};
    bool armed = false;
    while (std::chrono::steady_clock::now() < deadline) {
      const std::vector<int64_t> steps = victim_files.Steps();
      if (!steps.empty() && steps.back() >= 2 * every) {
        armed = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(armed) << "no checkpoint appeared within the deadline";
    harness.Kill(victim, SIGKILL);
    const auto results = harness.WaitAll(60000);
    ASSERT_EQ(results[victim].term_signal, SIGKILL)
        << "victim finished before the kill landed — job too fast for "
           "this machine?\n" << harness.output(victim);
    int peer_loss_exits = 0;
    for (int r = 0; r < world; ++r) {
      if (r == victim) continue;
      EXPECT_FALSE(results[r].timed_out) << "rank " << r << " hung";
      // Survivors must fail-stop with the peer-loss code, never "success".
      EXPECT_EQ(results[r].exit_code, 42)
          << "rank " << r << ":\n" << harness.output(r);
      if (results[r].exit_code == 42) ++peer_loss_exits;
    }
    ASSERT_GT(peer_loss_exits, 0);
  }

  // Run 2: gang restart. Every rank re-inits from the seed and resumes
  // from the newest common checkpoint step, then finishes the job.
  {
    testing::ProcHarness harness;
    harness.Launch(specs_for(true));
    const auto results = harness.WaitAll(120000);
    for (int r = 0; r < world; ++r) {
      ASSERT_EQ(results[r].exit_code, 0)
          << "rank " << r << ":\n" << harness.output(r);
    }
    // The worker logs the resume point; it must be a real resume.
    EXPECT_NE(harness.output(0).find("resumed"), std::string::npos);
  }

  // The recovered run's final parameters equal the fault-free twin's, bit
  // for bit (losses recorded before the resume point are zeroed in the
  // recovered file, so compare the "layer" lines only).
  auto layer_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::stringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.rfind("layer ", 0) == 0) lines.push_back(line);
    }
    return lines;
  };
  const auto twin_layers = layer_lines(ReadFile(twin_file));
  const auto recovered_layers = layer_lines(ReadFile(result_file));
  ASSERT_FALSE(twin_layers.empty());
  ASSERT_EQ(recovered_layers.size(), twin_layers.size());
  for (size_t l = 0; l < twin_layers.size(); ++l) {
    EXPECT_EQ(recovered_layers[l], twin_layers[l])
        << "layer " << l << " diverged after recovery";
  }
}

// Fail-stop in one process: one rank of a 2-rank in-process job fails its
// step-2 shard save. Its peer leaves the next collective instead of
// waiting for it forever, and the job exits 1 with the checkpoint error.
TEST_F(MultiProcTest, InProcessRankFailingMidRunFailsTheJob) {
  testing::ProcHarness harness;
  testing::ProcSpec spec;
  spec.argv = {testing::WorkerBinary(), "--backend=inproc", "--world=2",
               "--steps=6", "--checkpoint-every=2",
               "--checkpoint-dir=" + dir_ + "/ckpt"};
  spec.env = {"ANGELPTM_FAULT_SITES=checkpoint.write=nth:1"};
  harness.Launch({spec});
  const auto results = harness.WaitAll(60000);
  EXPECT_FALSE(results[0].timed_out) << harness.output(0);
  EXPECT_EQ(results[0].exit_code, 1) << harness.output(0);
  EXPECT_NE(harness.output(0).find("Train failed"), std::string::npos);
  EXPECT_NE(harness.output(0).find("injected fault at checkpoint.write"),
            std::string::npos)
      << harness.output(0);
}

// The harness itself: deadline enforcement reaps a hung child.
TEST_F(MultiProcTest, HarnessDeadlineKillsStragglers) {
  // A rank 0 with world=2 and no rank 1 blocks in rendezvous (its connect
  // timeout is far beyond the harness deadline).
  testing::ProcHarness harness;
  harness.Launch({WorkerSpec(0, 2, Rendezvous("hung"), {"--steps=1"})});
  const auto results = harness.WaitAll(1000);
  EXPECT_TRUE(results[0].timed_out);
  EXPECT_EQ(results[0].term_signal, SIGKILL);
}

// Exit code contract: bad flags exit 2 (the launcher can distinguish
// usage errors from peer loss from real failures).
TEST_F(MultiProcTest, WorkerRejectsBadUsage) {
  testing::ProcHarness harness;
  harness.Launch({{{testing::WorkerBinary(), "--no-such-flag=1"}, {}}});
  EXPECT_EQ(harness.WaitAll(10000)[0].exit_code, 2);
}

}  // namespace
}  // namespace angelptm
