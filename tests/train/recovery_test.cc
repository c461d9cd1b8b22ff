#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "core/checkpoint_manager.h"
#include "train/engine_trainer.h"
#include "train/mlp.h"
#include "train/trainer.h"
#include "util/fault_injector.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace angelptm::train {
namespace {

/// The Trainer's two step backends: the updater on a caller-owned
/// allocator, or the whole paged core::Engine.
enum class Backend { kDirect, kPaged };

std::string BackendName(Backend backend) {
  return backend == Backend::kDirect ? "Direct" : "Paged";
}

/// `ssd_bytes_per_sec` > 0 throttles the SSD tier, on small pages so the
/// masters still move quickly enough to train.
mem::HierarchicalMemoryOptions MemoryOptions(const std::string& tag,
                                             double ssd_bytes_per_sec = 0) {
  mem::HierarchicalMemoryOptions o;
  o.page_bytes = ssd_bytes_per_sec > 0 ? 4 * 1024 : 64 * 1024;
  o.ssd_bandwidth_bytes_per_sec = ssd_bytes_per_sec;
  o.gpu_capacity_bytes = 8ull << 20;
  o.cpu_capacity_bytes = 64ull << 20;
  o.ssd_capacity_bytes = 64ull << 20;
  o.ssd_path = "/tmp/angelptm_recovery_test_" + tag + "_" +
               std::to_string(::getpid()) + ".bin";
  return o;
}

const MlpModel& TestModel() {
  static const MlpModel* model = new MlpModel({{16, 64, 64, 4}});
  return *model;
}

TrainerOptions BaseOptions() {
  TrainerOptions options;
  options.optimizer.learning_rate = 3e-3;
  options.batch_size = 32;
  options.seed = 7;
  return options;
}

/// A trainer plus the memory the direct backend allocates from (the paged
/// backend's engine owns its own). The trainer is destroyed first.
struct Harness {
  std::unique_ptr<mem::HierarchicalMemory> memory;
  std::unique_ptr<core::Allocator> allocator;
  std::unique_ptr<Trainer> trainer;
  Trainer* operator->() { return trainer.get(); }
};

/// Fixture for the crash/restart suite, run over both step backends: pins
/// the compute pool to a single thread so floating-point reductions are
/// bitwise reproducible across runs (the determinism the resume tests
/// assert), and keeps the fault registry clean around every case.
class RecoveryTest : public ::testing::TestWithParam<Backend> {
 protected:
  RecoveryTest() : single_thread_pool_(1) {}

  void SetUp() override {
    util::FaultInjector::Instance().Reset();
    util::SetComputePoolOverride(&single_thread_pool_);
  }
  void TearDown() override {
    util::SetComputePoolOverride(nullptr);
    util::FaultInjector::Instance().Reset();
  }

  /// `tag` made unique per backend, for file and directory names.
  std::string Name(const std::string& tag) const {
    return tag + "_" + BackendName(GetParam());
  }

  std::string TempDir(const std::string& tag) const {
    const std::string dir = "/tmp/angelptm_recovery_" + Name(tag) + "_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// A trainer on the backend under test. The paged backend takes the loop
  /// options, the update rule, lock-free mode and master tier from
  /// `options`, and offloads activations as it does by default. A
  /// non-empty `ssd_path` replaces the per-process SSD file name.
  Harness Make(const std::string& tag, const TrainerOptions& options,
               double ssd_bytes_per_sec = 0,
               const std::string& ssd_path = "") const {
    mem::HierarchicalMemoryOptions memory =
        MemoryOptions(Name(tag), ssd_bytes_per_sec);
    if (!ssd_path.empty()) memory.ssd_path = ssd_path;
    Harness harness;
    if (GetParam() == Backend::kDirect) {
      harness.memory = std::make_unique<mem::HierarchicalMemory>(memory);
      harness.allocator =
          std::make_unique<core::Allocator>(harness.memory.get());
      harness.trainer = std::make_unique<Trainer>(harness.allocator.get(),
                                                  &TestModel(), options);
      return harness;
    }
    EngineTrainerOptions paged;
    static_cast<TrainLoopOptions&>(paged) = options;
    paged.engine.memory = memory;
    paged.engine.optimizer = options.optimizer;
    paged.engine.lock_free = options.lock_free;
    paged.engine.master_device = options.master_device;
    harness.trainer = std::make_unique<Trainer>(&TestModel(), paged);
    return harness;
  }

  util::ThreadPool single_thread_pool_;
};

std::vector<std::vector<float>> MasterParams(core::LockFreeUpdater* updater) {
  std::vector<std::vector<float>> layers(updater->num_layers());
  for (int l = 0; l < updater->num_layers(); ++l) {
    EXPECT_TRUE(updater->ReadMasterParams(l, &layers[l]).ok());
  }
  return layers;
}

TEST_P(RecoveryTest, KillAndRestartMatchesUninterruptedRunBitwise) {
  // The headline §3.1 guarantee: a run killed at step 30 and restarted from
  // its checkpoint produces the SAME model as one that never died — not
  // approximately, bitwise. Checkpoints carry the full cursor (RNG state
  // incl. the Box-Muller cache, step counter, loss-scaler schedule), so the
  // resumed run regenerates the identical batch stream. On the paged
  // backend the restarted engine re-traces its first step; the schedule
  // must not change the numbers.
  SyntheticRegression dataset(16, 32, 4, 99);
  const std::string dir = TempDir("bitwise");

  // Uninterrupted reference: 60 steps straight through.
  TrainerOptions options = BaseOptions();
  // The scaler schedule must survive too (loss scaling is direct-only).
  options.use_loss_scaling = GetParam() == Backend::kDirect;
  std::vector<std::vector<float>> reference;
  std::vector<double> reference_losses;
  {
    Harness trainer = Make("ref", options);
    ASSERT_TRUE(trainer->Init().ok());
    auto report = trainer->Train(dataset, 60);
    ASSERT_TRUE(report.ok()) << report.status();
    reference = MasterParams(trainer->updater());
    reference_losses = report->losses;
  }

  // Interrupted run: checkpoint every 10 steps, "crash" (destroy the
  // trainer) after 30, restart a brand-new trainer from disk.
  options.checkpoint_dir = dir;
  options.checkpoint_every_n_steps = 10;
  std::vector<double> second_half_losses;
  {
    Harness trainer = Make("half1", options);
    ASSERT_TRUE(trainer->Init().ok());
    ASSERT_TRUE(trainer->Train(dataset, 30).ok());
    EXPECT_EQ(trainer->checkpoint_manager()->Snapshot().last_saved_step, 30);
  }  // <- the crash: everything in memory is gone.
  {
    Harness trainer = Make("half2", options);
    ASSERT_TRUE(trainer->Init().ok());
    auto resumed = trainer->TryResume();
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_TRUE(*resumed);
    EXPECT_EQ(trainer->global_step(), 30);
    auto report = trainer->Train(dataset, 30);
    ASSERT_TRUE(report.ok()) << report.status();
    second_half_losses = report->losses;

    const std::vector<std::vector<float>> restarted =
        MasterParams(trainer->updater());
    ASSERT_EQ(restarted.size(), reference.size());
    for (size_t l = 0; l < reference.size(); ++l) {
      EXPECT_EQ(restarted[l], reference[l]) << "layer " << l;
    }
  }
  // The per-step losses line up too: the resumed run really saw the same
  // batches the reference saw for steps 31..60.
  ASSERT_EQ(second_half_losses.size(), 30u);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(second_half_losses[i], reference_losses[30 + i]) << "step " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST_P(RecoveryTest, TryResumeIsFreshStartWithoutCheckpoints) {
  TrainerOptions options = BaseOptions();
  options.checkpoint_dir = TempDir("fresh");
  Harness trainer = Make("fresh", options);
  ASSERT_TRUE(trainer->Init().ok());
  auto resumed = trainer->TryResume();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(*resumed);
  EXPECT_EQ(trainer->global_step(), 0);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_P(RecoveryTest, AutoRecoveryAbsorbsPoisonedUpdater) {
  // §3.1 end to end: a transient SSD failure poisons the lock-free updater
  // mid-run; Train() must tear the state down, restore the latest
  // checkpoint into fresh state (the paged backend rebuilds the whole
  // engine), and finish — no hang, no error, and the recovery is visible
  // in the report's telemetry.
  SyntheticRegression dataset(16, 32, 4, 99);
  TrainerOptions options = BaseOptions();
  options.lock_free = true;
  options.master_device = mem::DeviceKind::kSsd;
  options.drain_deadline_ms = 5000;

  // Fault-free twin: same config, no faults — the quality yardstick.
  double fault_free_loss = 0;
  {
    Harness reference = Make("recover_ref", options);
    ASSERT_TRUE(reference->Init().ok());
    auto report = reference->Train(dataset, 60);
    ASSERT_TRUE(report.ok()) << report.status();
    fault_free_loss = report->validation_loss;
  }

  options.checkpoint_dir = TempDir("recover");
  options.checkpoint_every_n_steps = 10;
  options.max_recoveries = 2;
  Harness trainer = Make("recover", options);
  ASSERT_TRUE(trainer->Init().ok());

  // Phase 1: train far enough to have checkpoints on disk.
  ASSERT_TRUE(trainer->Train(dataset, 20).ok());
  ASSERT_GE(trainer->checkpoint_manager()->Snapshot().saves, 1u);

  // Arm through the ANGELPTM_FAULT_SITES grammar (the same spec string an
  // operator would export). max:3 outlasts the SSD tier's 3-attempt retry
  // loop, so exactly one logical master write-back fails for good, then
  // the "device" heals. The faulted window (3 steps) crosses no
  // checkpoint-save boundary, so the only SSD writer is the updating
  // thread — the poison lands there deterministically.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("ssd.pwrite=always,max:3")
                  .ok());
  auto faulted = trainer->Train(dataset, 3);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->telemetry.recoveries, 1u);
  EXPECT_EQ(trainer->recoveries(), 1u);
  EXPECT_EQ(trainer->global_step(), 23);
  // The post-recovery updater is healthy and fully drained.
  EXPECT_TRUE(trainer->updater()->status().ok());
  EXPECT_EQ(trainer->updater()->Snapshot().pending_grad_batches, 0u);
  // Exactly the requested number of losses: the rewound steps were re-run,
  // not double-counted (no silent gradient loss either way).
  EXPECT_EQ(faulted->losses.size(), 3u);
  ASSERT_TRUE(faulted->telemetry.has_checkpoint_manager);
  EXPECT_GE(faulted->telemetry.checkpoint.loads, 1u);

  // Phase 3: finish to 60 steps on the healed device and compare quality.
  auto report = trainer->Train(dataset, 37);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(trainer->global_step(), 60);
  EXPECT_EQ(report->telemetry.recoveries, 0u);

  // Quality: the recovered run lands in the same band as its fault-free
  // twin — the rewind re-applied the lost steps instead of dropping them.
  EXPECT_TRUE(std::isfinite(report->validation_loss));
  EXPECT_LT(report->validation_loss, fault_free_loss * 5 + 0.1);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_P(RecoveryTest, RecoveryBudgetExhaustionPropagatesLoudly) {
  SyntheticRegression dataset(16, 32, 4, 99);
  TrainerOptions options = BaseOptions();
  options.lock_free = true;
  options.master_device = mem::DeviceKind::kSsd;
  options.drain_deadline_ms = 5000;
  options.checkpoint_dir = TempDir("budget");
  options.checkpoint_every_n_steps = 10;
  options.max_recoveries = 1;
  Harness trainer = Make("budget", options);
  ASSERT_TRUE(trainer->Init().ok());
  ASSERT_TRUE(trainer->Train(dataset, 10).ok());

  // First poisoning: absorbed (budget 1). As above, the short faulted
  // windows cross no checkpoint-save step, so the updating thread is the
  // only SSD writer in them.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("ssd.pwrite=always,max:3")
                  .ok());
  ASSERT_TRUE(trainer->Train(dataset, 3).ok());
  EXPECT_EQ(trainer->recoveries(), 1u);

  // Second poisoning: budget exhausted, the error must escape and say why.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("ssd.pwrite=always,max:3")
                  .ok());
  auto report = trainer->Train(dataset, 3);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsIoError()) << report.status();
  EXPECT_NE(report.status().message().find("recovery budget of 1 exhausted"),
            std::string::npos)
      << report.status();
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_P(RecoveryTest, KillDuringPersistResumesFromThePreviousCheckpoint) {
  // A SIGKILL while the background writer is mid-persist. A child process
  // trains 2 steps with a checkpoint after each, on a throttled SSD tier
  // that keeps every persist slow, and a watcher thread kills it as soon
  // as the step-2 persist has opened its tmp file. The restart must
  // resume from step 1 — bit for bit the masters of a 1-step run — and
  // its Init must delete the dead persist's tmp file.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SyntheticRegression dataset(16, 32, 4, 99);
  TrainerOptions options = BaseOptions();
  options.master_device = mem::DeviceKind::kSsd;
  options.checkpoint_every_n_steps = 1;
  // The death-test child is a fresh exec of this binary that re-runs the
  // test up to EXPECT_EXIT; the parent's directory reaches it through the
  // environment, and names the child's SSD file so the parent can check
  // that the SIGKILL left none behind.
  constexpr char kDirVar[] = "ANGELPTM_RECOVERY_TEST_KILL_DIR";
  const char* inherited = std::getenv(kDirVar);
  options.checkpoint_dir =
      inherited != nullptr ? std::string(inherited) : TempDir("kill");
  const std::string child_ssd = options.checkpoint_dir + ".ssd.bin";
  core::CheckpointManager::Options naming;
  naming.dir = options.checkpoint_dir;
  const std::string tmp = core::CheckpointManager(naming).PathForStep(2) +
                          ".tmp";
  ::setenv(kDirVar, options.checkpoint_dir.c_str(), 1);
  EXPECT_EXIT(
      {
        constexpr double kSlowSsd = 256 * 1024;
        Harness child = Make("kill_child", options, kSlowSsd, child_ssd);
        if (!child->Init().ok()) std::exit(1);
        std::thread([&tmp] {
          while (!std::filesystem::exists(tmp)) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          ::kill(::getpid(), SIGKILL);
        }).detach();
        (void)child->Train(dataset, 2);
        std::exit(0);  // The persist outran the watcher: fail loudly.
      },
      ::testing::KilledBySignal(SIGKILL), "");
  ::unsetenv(kDirVar);
  EXPECT_TRUE(std::filesystem::exists(tmp));
  EXPECT_FALSE(std::filesystem::exists(child_ssd));

  TrainerOptions reference_options = options;
  reference_options.checkpoint_dir.clear();
  reference_options.checkpoint_every_n_steps = 0;
  Harness reference = Make("kill_ref", reference_options);
  ASSERT_TRUE(reference->Init().ok());
  ASSERT_TRUE(reference->Train(dataset, 1).ok());

  Harness restarted = Make("kill_restart", options);
  ASSERT_TRUE(restarted->Init().ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  auto resumed = restarted->TryResume();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(*resumed);
  EXPECT_EQ(restarted->global_step(), 1);
  EXPECT_EQ(MasterParams(restarted->updater()),
            MasterParams(reference->updater()));
  std::filesystem::remove_all(options.checkpoint_dir);
}

INSTANTIATE_TEST_SUITE_P(Backends, RecoveryTest,
                         ::testing::Values(Backend::kDirect, Backend::kPaged),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendName(info.param);
                         });

}  // namespace
}  // namespace angelptm::train
