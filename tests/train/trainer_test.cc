#include "train/engine_trainer.h"
#include "train/mlp.h"
#include "train/trainer.h"

#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault_injector.h"

namespace angelptm::train {
namespace {

mem::HierarchicalMemoryOptions MemoryOptions(const char* tag) {
  mem::HierarchicalMemoryOptions o;
  o.page_bytes = 64 * 1024;
  o.gpu_capacity_bytes = 8ull << 20;
  o.cpu_capacity_bytes = 64ull << 20;
  o.ssd_capacity_bytes = 64ull << 20;
  o.ssd_path = std::string("/tmp/angelptm_trainer_test_") + tag + "_" +
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

TEST(TrainerTest, SynchronousTrainingConverges) {
  mem::HierarchicalMemory memory(MemoryOptions("sync"));
  core::Allocator allocator(&memory);
  Trainer trainer(&allocator, &TestModel(), BaseOptions());
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 300);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->final_train_loss, report->losses.front() / 5);
  EXPECT_LT(report->validation_loss, 0.2);
  // One per layer per step.
  EXPECT_EQ(report->telemetry.updater.updates_applied, 3u * 300);
  EXPECT_EQ(report->telemetry.max_pending_batches, 0u);
}

TEST(TrainerTest, LockFreeMatchesSynchronousLoss) {
  // The Table 6 convergence claim: asynchronous staleness does not harm
  // final quality materially.
  SyntheticRegression dataset(16, 32, 4, 99);
  double sync_loss, lockfree_loss;
  {
    mem::HierarchicalMemory memory(MemoryOptions("cmp_sync"));
    core::Allocator allocator(&memory);
    Trainer trainer(&allocator, &TestModel(), BaseOptions());
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 400);
    ASSERT_TRUE(report.ok());
    sync_loss = report->validation_loss;
  }
  {
    mem::HierarchicalMemory memory(MemoryOptions("cmp_lf"));
    core::Allocator allocator(&memory);
    TrainerOptions options = BaseOptions();
    options.lock_free = true;
    Trainer trainer(&allocator, &TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 400);
    ASSERT_TRUE(report.ok());
    lockfree_loss = report->validation_loss;
    EXPECT_GT(report->telemetry.updater.updates_applied, 0u);
  }
  EXPECT_LT(lockfree_loss, 0.25);
  // Within a factor of ~4 of the synchronous loss (both near-converged).
  EXPECT_LT(lockfree_loss, sync_loss * 4 + 0.05);
}

TEST(TrainerTest, LockFreeObservesStaleness) {
  mem::HierarchicalMemory memory(MemoryOptions("stale"));
  core::Allocator allocator(&memory);
  TrainerOptions options = BaseOptions();
  options.lock_free = true;
  Trainer trainer(&allocator, &TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 200);
  ASSERT_TRUE(report.ok());
  // The compute loop runs ahead of the updater at least sometimes.
  EXPECT_GT(report->telemetry.max_pending_batches, 0u);
  // Drained at the end: everything applied.
  EXPECT_EQ(trainer.updater()->Snapshot().pending_grad_batches, 0u);
}

TEST(TrainerTest, SsdMasterStatesTrainForReal) {
  // fp32 master states round-trip through the file-backed SSD tier on
  // every update (§6.5's extreme-scale mode, unthrottled here).
  mem::HierarchicalMemory memory(MemoryOptions("ssd"));
  core::Allocator allocator(&memory);
  TrainerOptions options = BaseOptions();
  options.master_device = mem::DeviceKind::kSsd;
  Trainer trainer(&allocator, &TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 150);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->final_train_loss, report->losses.front());
  // Real bytes hit the disk.
  EXPECT_GT(memory.ssd()->Snapshot().bytes_written, 0u);
  EXPECT_GT(memory.ssd()->Snapshot().bytes_read, 0u);
  // The report carries the same telemetry without poking getters.
  EXPECT_GT(report->telemetry.ssd.bytes_written, 0u);
  EXPECT_TRUE(report->telemetry.has_ssd);
}

TEST(TrainerTest, SsdTelemetryIsExactAndPerInstance) {
  // Synchronous SSD-master training: Init writes every master page to the
  // tier once; each step's update moves each page to the CPU tier and back;
  // validation then reads each layer's p32 bytes in place. Each run's
  // telemetry counts its own memory only, so a second identical run in the
  // same process reports the same numbers.
  constexpr uint64_t kSteps = 5;
  uint64_t param_bytes = 0;
  for (int l = 0; l < TestModel().num_layers(); ++l) {
    param_bytes += TestModel().LayerParamCount(l) * sizeof(float);
  }
  constexpr mem::DeviceKind kCpu = mem::DeviceKind::kCpu;
  constexpr mem::DeviceKind kSsd = mem::DeviceKind::kSsd;
  SyntheticRegression dataset(16, 32, 4, 99);
  std::vector<uint64_t> runs[2];
  for (int run = 0; run < 2; ++run) {
    mem::HierarchicalMemory memory(
        MemoryOptions(run == 0 ? "exact0" : "exact1"));
    core::Allocator allocator(&memory);
    TrainerOptions options = BaseOptions();
    options.master_device = kSsd;
    Trainer trainer(&allocator, &TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    const uint64_t pages = memory.Snapshot().tier(kSsd).pages;
    const uint64_t page_bytes = memory.page_bytes();
    ASSERT_GT(pages, 0u);
    auto report = trainer.Train(dataset, int(kSteps));
    ASSERT_TRUE(report.ok()) << report.status();
    const TelemetrySnapshot& t = report->telemetry;
    ASSERT_TRUE(t.has_ssd);
    EXPECT_EQ(t.ssd.bytes_written, pages * page_bytes * (kSteps + 1));
    EXPECT_EQ(t.ssd.bytes_read, pages * page_bytes * kSteps + param_bytes);
    EXPECT_EQ(t.memory.link(kCpu, kSsd).moves, pages * (kSteps + 1));
    EXPECT_EQ(t.memory.link(kSsd, kCpu).moves, pages * kSteps);
    EXPECT_EQ(t.memory.link(kCpu, kSsd).bytes, t.ssd.bytes_written);
    runs[run] = {pages, t.ssd.bytes_read, t.ssd.bytes_written,
                 t.memory.link(kCpu, kSsd).moves,
                 t.memory.link(kSsd, kCpu).moves};
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  SyntheticRegression dataset(16, 32, 4, 99);
  double first = 0, second = 0;
  for (int run = 0; run < 2; ++run) {
    mem::HierarchicalMemory memory(
        MemoryOptions(run == 0 ? "det0" : "det1"));
    core::Allocator allocator(&memory);
    Trainer trainer(&allocator, &TestModel(), BaseOptions());
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 50);
    ASSERT_TRUE(report.ok());
    (run == 0 ? first : second) = report->final_train_loss;
  }
  EXPECT_EQ(first, second);  // Synchronous mode is exactly reproducible.
}

TEST(TrainerTest, GradAccumulationConverges) {
  mem::HierarchicalMemory memory(MemoryOptions("accum"));
  core::Allocator allocator(&memory);
  TrainerOptions options = BaseOptions();
  options.grad_accumulation = 4;
  Trainer trainer(&allocator, &TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 400);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->validation_loss, 0.3);
  // One optimizer pass per 4 steps (3 layers each), plus the final flush
  // which finds nothing pending.
  EXPECT_EQ(report->telemetry.updater.updates_applied, 3u * 100);
}

TEST(TrainerTest, Bf16ComputeConvergesLikeFp32) {
  // §6.1: models train with bf16 compute over fp32 master states. Rounding
  // every boundary through bfloat16 must not break convergence.
  SyntheticRegression dataset(16, 32, 4, 99);
  double fp32_loss = 0, bf16_loss = 0;
  for (const ComputePrecision precision :
       {ComputePrecision::kFp32, ComputePrecision::kBf16}) {
    mem::HierarchicalMemory memory(
        MemoryOptions(precision == ComputePrecision::kFp32 ? "fp32" : "bf16"));
    core::Allocator allocator(&memory);
    TrainerOptions options = BaseOptions();
    options.compute_precision = precision;
    Trainer trainer(&allocator, &TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 300);
    ASSERT_TRUE(report.ok());
    (precision == ComputePrecision::kFp32 ? fp32_loss : bf16_loss) =
        report->validation_loss;
  }
  EXPECT_LT(bf16_loss, 0.25);
  // bf16 result differs (it really rounded) but stays in the same band.
  EXPECT_NE(bf16_loss, fp32_loss);
  EXPECT_LT(bf16_loss, fp32_loss * 5 + 0.05);
}

/// End-to-end acceptance for the failure-propagation work: a permanently
/// failing SSD write must turn into a Train() error within the drain
/// deadline, never a hang or a silently-diverging run.
class TrainerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override { util::FaultInjector::Instance().Reset(); }
};

TEST_F(TrainerFaultTest, TrainerSurfacesSsdWriteFailure) {
  mem::HierarchicalMemory memory(MemoryOptions("fault"));
  core::Allocator allocator(&memory);
  TrainerOptions options = BaseOptions();
  options.lock_free = true;
  options.master_device = mem::DeviceKind::kSsd;
  options.drain_deadline_ms = 5000;
  Trainer trainer(&allocator, &TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());  // Masters reach the SSD pre-fault.

  util::FaultRule rule;
  rule.permanent = true;
  util::FaultInjector::Instance().Arm("ssd.pwrite", rule);

  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 50);
  ASSERT_FALSE(report.ok());
  // The first master write-back failure poisons the updater; Train observes
  // it either through a fast-failing offload or the final drain.
  EXPECT_TRUE(report.status().IsIoError()) << report.status();
  EXPECT_TRUE(trainer.updater()->status().IsIoError());
}

TEST(TrainerTest, BatchGenerationIsTimedOncePerStepOnBothBackends) {
  SyntheticRegression dataset(16, 32, 4, 99);
  mem::HierarchicalMemory memory(MemoryOptions("gen"));
  core::Allocator allocator(&memory);
  Trainer direct(&allocator, &TestModel(), BaseOptions());
  ASSERT_TRUE(direct.Init().ok());

  EngineTrainerOptions paged_options;
  paged_options.engine.memory.page_bytes = 16 * 1024;
  paged_options.engine.memory.gpu_capacity_bytes = 16 * 16 * 1024;
  paged_options.engine.memory.cpu_capacity_bytes = 32ull << 20;
  paged_options.batch_size = 32;
  paged_options.seed = 7;
  Trainer paged(&TestModel(), paged_options);
  ASSERT_TRUE(paged.Init().ok());

  for (Trainer* trainer : {&direct, &paged}) {
    // Each Train() call reports its own steps only.
    for (const int steps : {5, 3}) {
      auto report = trainer->Train(dataset, steps);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->telemetry.gen_us.count, uint64_t(steps));
      EXPECT_EQ(report->telemetry.fwd_us.count, uint64_t(steps));
    }
  }
}

TEST(TrainerTest, TrainBeforeInitFails) {
  mem::HierarchicalMemory memory(MemoryOptions("noinit"));
  core::Allocator allocator(&memory);
  Trainer trainer(&allocator, &TestModel(), BaseOptions());
  SyntheticRegression dataset(16, 32, 4, 99);
  EXPECT_EQ(trainer.Train(dataset, 1).status().code(),
            util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace angelptm::train
