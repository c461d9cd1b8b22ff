#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "core/checkpoint.h"
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

mem::HierarchicalMemoryOptions MemoryOptions(const std::string& tag) {
  mem::HierarchicalMemoryOptions o;
  o.page_bytes = 64 * 1024;
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
  /// `options`, and offloads activations as it does by default.
  Harness Make(const std::string& tag, const TrainerOptions& options) const {
    Harness harness;
    if (GetParam() == Backend::kDirect) {
      harness.memory =
          std::make_unique<mem::HierarchicalMemory>(MemoryOptions(Name(tag)));
      harness.allocator =
          std::make_unique<core::Allocator>(harness.memory.get());
      harness.trainer = std::make_unique<Trainer>(harness.allocator.get(),
                                                  &TestModel(), options);
      return harness;
    }
    EngineTrainerOptions paged;
    static_cast<TrainLoopOptions&>(paged) = options;
    paged.engine.memory = MemoryOptions(Name(tag));
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

/// Hand-written v1 checkpoint (no progress block): magic, version 1, layer
/// count, per layer `count | adam_step | p32 | m32 | v32` with zeroed
/// moments, then the FNV-1a checksum over everything before it.
void WriteV1Checkpoint(const std::string& path,
                       const std::vector<std::vector<float>>& masters) {
  std::vector<char> bytes;
  auto put = [&bytes](const void* data, size_t n) {
    const char* c = static_cast<const char*>(data);
    bytes.insert(bytes.end(), c, c + n);
  };
  put("APTMCKPT", 8);
  const uint32_t version = 1, num_layers = uint32_t(masters.size());
  put(&version, 4);
  put(&num_layers, 4);
  for (const std::vector<float>& p : masters) {
    const uint64_t count = p.size();
    const int64_t adam_step = 0;
    const std::vector<float> zeros(p.size(), 0.0f);
    put(&count, 8);
    put(&adam_step, 8);
    put(p.data(), count * sizeof(float));
    put(zeros.data(), count * sizeof(float));
    put(zeros.data(), count * sizeof(float));
  }
  uint64_t hash = 14695981039346656037ull;
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ull;
  }
  put(&hash, 8);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), long(bytes.size()));
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

TEST_P(RecoveryTest, V1CheckpointRestoresMastersAndRestartsTheStream) {
  // A v1 file predates the progress block, and its step count is always 0:
  // resuming from it restores the master states, while the step counter
  // and the data stream restart at 0.
  SyntheticRegression dataset(16, 32, 4, 99);
  // Masters unlike the trainer's own initial draw, so the restore shows.
  std::vector<std::vector<float>> masters;
  {
    Harness fresh = Make("v1_init", BaseOptions());
    ASSERT_TRUE(fresh->Init().ok());
    masters = MasterParams(fresh->updater());
  }
  for (std::vector<float>& layer : masters) {
    for (float& p : layer) p *= 0.5f;
  }

  TrainerOptions options = BaseOptions();
  options.checkpoint_dir = TempDir("v1");
  Harness resumed = Make("v1_resumed", options);
  ASSERT_TRUE(resumed->Init().ok());
  const std::string path = resumed->checkpoint_manager()->PathForStep(0);
  WriteV1Checkpoint(path, masters);
  auto found = resumed->TryResume();
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_TRUE(*found);
  EXPECT_EQ(resumed->global_step(), 0);
  EXPECT_EQ(MasterParams(resumed->updater()), masters);

  // Twin: the same masters imported into a fresh trainer, whose data
  // stream starts at 0. Both must train bit for bit alike.
  Harness twin = Make("v1_twin", BaseOptions());
  ASSERT_TRUE(twin->Init().ok());
  ASSERT_TRUE(core::LoadCheckpoint(twin->updater(), path).ok());
  auto resumed_report = resumed->Train(dataset, 5);
  auto twin_report = twin->Train(dataset, 5);
  ASSERT_TRUE(resumed_report.ok()) << resumed_report.status();
  ASSERT_TRUE(twin_report.ok()) << twin_report.status();
  EXPECT_EQ(resumed_report->losses, twin_report->losses);
  EXPECT_EQ(resumed->global_step(), 5);
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

INSTANTIATE_TEST_SUITE_P(Backends, RecoveryTest,
                         ::testing::Values(Backend::kDirect, Backend::kPaged),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendName(info.param);
                         });

}  // namespace
}  // namespace angelptm::train
