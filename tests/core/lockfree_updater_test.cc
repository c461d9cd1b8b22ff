#include "core/lockfree_updater.h"

#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/adam.h"
#include "util/fault_injector.h"
#include "util/half.h"

namespace angelptm::core {
namespace {

class LockFreeUpdaterTest : public ::testing::Test {
 protected:
  LockFreeUpdaterTest() : memory_(MakeOptions()), allocator_(&memory_) {}

  static mem::HierarchicalMemoryOptions MakeOptions() {
    mem::HierarchicalMemoryOptions o;
    o.page_bytes = 16 * 1024;
    o.gpu_capacity_bytes = 4ull << 20;
    o.cpu_capacity_bytes = 32ull << 20;
    o.ssd_capacity_bytes = 32ull << 20;
    o.ssd_path = "/tmp/angelptm_lfu_test_" + std::to_string(::getpid()) +
                 "_" + std::to_string(counter_++) + ".bin";
    return o;
  }

  static LockFreeUpdater::Options UpdaterOptions(
      mem::DeviceKind master = mem::DeviceKind::kCpu) {
    LockFreeUpdater::Options options;
    options.optimizer.learning_rate = 0.1;
    options.master_device = master;
    return options;
  }

  static int counter_;
  mem::HierarchicalMemory memory_;
  Allocator allocator_;
};

int LockFreeUpdaterTest::counter_ = 0;

TEST_F(LockFreeUpdaterTest, InitialParamsVisibleThroughBuffers) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const std::vector<float> init = {1.0f, 2.0f, 3.0f};
  auto layer = updater.AddLayer(init);
  ASSERT_TRUE(layer.ok());
  EXPECT_EQ(*layer, 0);
  std::vector<float> fetched;
  ASSERT_TRUE(updater.FetchParams(0, &fetched).ok());
  EXPECT_EQ(fetched, init);
  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  EXPECT_EQ(master, init);
}

TEST_F(LockFreeUpdaterTest, SynchronousUpdateMatchesReferenceAdam) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const std::vector<float> init = {1.0f, -2.0f, 0.5f, 4.0f};
  ASSERT_TRUE(updater.AddLayer(init).ok());

  const std::vector<float> grads = {0.5f, -1.0f, 0.25f, 2.0f};
  ASSERT_TRUE(updater.OffloadGrads(0, grads).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());

  // Reference Adam on plain arrays.
  AdamConfig config;
  config.learning_rate = 0.1;
  std::vector<float> p = init, m(4, 0.0f), v(4, 0.0f);
  AdamUpdate(config, p.data(), m.data(), v.data(), grads.data(), 4, 1);

  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(master[i], p[i], 1e-5) << "param " << i;
  }
  // The fp16 buffer also refreshed (within fp16 precision).
  std::vector<float> fetched;
  ASSERT_TRUE(updater.FetchParams(0, &fetched).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(fetched[i], p[i], 5e-3) << "buffered " << i;
  }
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.pending_grad_batches, 0u);
  EXPECT_EQ(stats.grad_batches_offloaded, 1u);
}

TEST_F(LockFreeUpdaterTest, AccumulatedBatchesAreAveraged) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({0.0f}).ok());
  ASSERT_TRUE(updater.OffloadGrads(0, {1.0f}).ok());
  ASSERT_TRUE(updater.OffloadGrads(0, {3.0f}).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());

  // Equivalent single update with the averaged gradient 2.0.
  AdamConfig config;
  config.learning_rate = 0.1;
  std::vector<float> p = {0.0f}, m = {0.0f}, v = {0.0f};
  const std::vector<float> avg = {2.0f};
  AdamUpdate(config, p.data(), m.data(), v.data(), avg.data(), 1, 1);

  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  EXPECT_NEAR(master[0], p[0], 1e-4);
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  // Both batches folded into the one update: staleness of 2.
  EXPECT_EQ(stats.staleness.count(), 1u);
}

TEST_F(LockFreeUpdaterTest, NoGradientsMeansNoUpdate) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());
  EXPECT_EQ(updater.Snapshot().updates_applied, 0u);
}

TEST_F(LockFreeUpdaterTest, AsyncThreadsApplyUpdates) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const std::vector<float> init(64, 1.0f);
  ASSERT_TRUE(updater.AddLayer(init).ok());
  ASSERT_TRUE(updater.AddLayer(init).ok());
  updater.Start();
  EXPECT_TRUE(updater.running());
  for (int step = 0; step < 20; ++step) {
    ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(64, 0.1f)).ok());
    ASSERT_TRUE(updater.OffloadGrads(1, std::vector<float>(64, -0.1f)).ok());
  }
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
  EXPECT_FALSE(updater.running());
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.pending_grad_batches, 0u);
  EXPECT_GT(stats.updates_applied, 0u);
  EXPECT_EQ(stats.grad_batches_offloaded, 40u);
  EXPECT_EQ(stats.grad_batches_applied, 40u);
  std::vector<float> p0, p1;
  ASSERT_TRUE(updater.ReadMasterParams(0, &p0).ok());
  ASSERT_TRUE(updater.ReadMasterParams(1, &p1).ok());
  EXPECT_LT(p0[0], 1.0f);  // Positive grads decreased the parameter.
  EXPECT_GT(p1[0], 1.0f);  // Negative grads increased it.
}

TEST_F(LockFreeUpdaterTest, ComputeNeverBlocksOnUpdater) {
  // Offloading with threads running must return quickly even while the
  // updater is busy — the defining property of the mechanism. (The default
  // staleness valve may briefly pace the loop, but never serializes it
  // behind one update per batch.)
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(4096, 0.5f)).ok());
  updater.Start();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        updater.OffloadGrads(0, std::vector<float>(4096, 0.01f)).ok());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 2.0);
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
}

TEST_F(LockFreeUpdaterTest, SsdMasterStatesRoundTrip) {
  LockFreeUpdater updater(&allocator_,
                          UpdaterOptions(mem::DeviceKind::kSsd));
  const std::vector<float> init = {1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_TRUE(updater.AddLayer(init).ok());
  EXPECT_GT(memory_.ssd()->Snapshot().bytes_written, 0u);

  ASSERT_TRUE(updater.OffloadGrads(0, {1.0f, 1.0f, 1.0f, 1.0f}).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());
  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  for (int i = 0; i < 4; ++i) EXPECT_LT(master[i], init[i]);
  EXPECT_GT(memory_.ssd()->Snapshot().bytes_read, 0u);
}

TEST_F(LockFreeUpdaterTest, InputValidation) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  EXPECT_TRUE(updater.AddLayer({}).status().IsInvalidArgument());
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  std::vector<float> out;
  EXPECT_TRUE(updater.FetchParams(5, &out).IsInvalidArgument());
  EXPECT_TRUE(updater.OffloadGrads(0, {1.0f}).IsInvalidArgument());
  EXPECT_TRUE(updater.OffloadGrads(-1, {1.0f}).IsInvalidArgument());
}

TEST_F(LockFreeUpdaterTest, UpdateOnceRejectedWhileRunning) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  updater.Start();
  EXPECT_EQ(updater.UpdateOnce().code(),
            util::StatusCode::kFailedPrecondition);
  updater.Stop();
}

TEST_F(LockFreeUpdaterTest, StalenessValveBoundsPerLayerBacklog) {
  // With the valve at 4, a compute loop spamming one layer can never get
  // more than 4 batches ahead of the updating thread, so no update ever
  // folds more than 4 batches (the staleness bound is a hard bound, not a
  // hint). A single offloading thread makes this deterministic: the valve
  // admits an offload only when in-flight < 4.
  auto options = UpdaterOptions();
  options.max_pending_batches_per_layer = 4;
  LockFreeUpdater updater(&allocator_, options);
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(256, 1.0f)).ok());
  updater.Start();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(256, 0.01f)).ok());
  }
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.grad_batches_applied, 100u);
  EXPECT_LE(stats.staleness.Max(), 4u);
}

TEST_F(LockFreeUpdaterTest, ValveDisabledAllowsUnboundedBacklog) {
  // Bound 0 switches the valve off: offloads never wait, whatever the
  // backlog (the paper's original never-blocking compute contract).
  auto options = UpdaterOptions();
  options.max_pending_batches_per_layer = 0;
  LockFreeUpdater updater(&allocator_, options);
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(16, 1.0f)).ok());
  updater.Start();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(16, 0.01f)).ok());
  }
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.grad_batches_applied, 50u);
  EXPECT_EQ(stats.backpressure_waits, 0u);
}

TEST_F(LockFreeUpdaterTest, StartStopIdempotent) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  updater.Start();
  updater.Start();
  updater.Stop();
  updater.Stop();
  SUCCEED();
}

TEST_F(LockFreeUpdaterTest, StopLeavesNoParameterInstallBehind) {
  // Training stops and restarts the threads on every Train() call. After
  // each Stop(), p'16 must hold the fp16 cast of the masters: an install the
  // updating thread queued while the threads shut down is applied, not left
  // in the queue.
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const std::vector<float> init(256, 1.0f);
  ASSERT_TRUE(updater.AddLayer(init).ok());
  ASSERT_TRUE(updater.AddLayer(init).ok());
  for (int cycle = 0; cycle < 50; ++cycle) {
    updater.Start();
    for (int l = 1; l >= 0; --l) {
      ASSERT_TRUE(
          updater.OffloadGrads(l, std::vector<float>(256, 0.01f)).ok());
    }
    updater.Stop();  // No drain: updates may still be in flight.
    for (int l = 0; l < 2; ++l) {
      std::vector<float> master, fetched;
      ASSERT_TRUE(updater.ReadMasterParams(l, &master).ok());
      ASSERT_TRUE(updater.FetchParams(l, &fetched).ok());
      for (float& m : master) {
        m = util::HalfBitsToFloat(util::FloatToHalfBits(m));
      }
      ASSERT_EQ(fetched, master) << "cycle " << cycle << ", layer " << l;
    }
  }
}

/// Failure semantics: injected faults must poison the updater and surface
/// through status()/DrainUpdates instead of hanging or silently diverging.
class LockFreeUpdaterFaultTest : public LockFreeUpdaterTest {
 protected:
  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override { util::FaultInjector::Instance().Reset(); }

  static void ArmPermanent(const char* site) {
    util::FaultRule rule;
    rule.permanent = true;
    util::FaultInjector::Instance().Arm(site, rule);
  }
};

TEST_F(LockFreeUpdaterFaultTest, SsdWriteFailurePoisonsAsyncUpdater) {
  LockFreeUpdater updater(&allocator_,
                          UpdaterOptions(mem::DeviceKind::kSsd));
  // Setup writes (master migration to SSD) happen before the fault is armed.
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(8, 1.0f)).ok());
  updater.Start();
  ArmPermanent("ssd.pwrite");  // Every master write-back now fails.

  // The offload itself never blocks; the failure surfaces asynchronously.
  ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(8, 0.5f)).ok());
  const util::Status drained =
      updater.DrainUpdates(std::chrono::milliseconds(30000));
  EXPECT_TRUE(drained.IsIoError()) << drained;
  EXPECT_TRUE(updater.status().IsIoError());

  // Poisoning is terminal: the compute-side interface fails fast.
  EXPECT_TRUE(
      updater.OffloadGrads(0, std::vector<float>(8, 0.5f)).IsIoError());
  std::vector<float> fetched;
  EXPECT_TRUE(updater.FetchParams(0, &fetched).IsIoError());
  EXPECT_TRUE(updater.UpdateOnce().IsIoError());
  updater.Stop();
}

TEST_F(LockFreeUpdaterFaultTest, BufferAccumulateFailurePoisons) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  ArmPermanent("updater.buffer_accumulate");
  updater.Start();
  ASSERT_TRUE(updater.OffloadGrads(0, {0.1f, 0.1f}).ok());
  EXPECT_TRUE(
      updater.DrainUpdates(std::chrono::milliseconds(30000)).IsIoError());
  updater.Stop();
  // The lost batch was never marked pending, so no zero-gradient update ran
  // — the regression where a failed accumulate still bumped pending_batches.
  EXPECT_EQ(updater.Snapshot().updates_applied, 0u);
}

TEST_F(LockFreeUpdaterFaultTest, BufferInstallFailurePoisons) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  ArmPermanent("updater.buffer_install");
  updater.Start();
  ASSERT_TRUE(updater.OffloadGrads(0, {0.5f}).ok());
  // The gradient may count as applied before the install task fails, so
  // DrainUpdates can legitimately return OK here; the poisoned state itself
  // is what must become visible promptly.
  (void)updater.DrainUpdates(std::chrono::milliseconds(30000));
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (updater.status().ok() &&
         std::chrono::steady_clock::now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(updater.status().IsIoError());
  updater.Stop();
  std::vector<float> fetched;
  EXPECT_TRUE(updater.FetchParams(0, &fetched).IsIoError());
}

TEST_F(LockFreeUpdaterFaultTest, PoisonReleasesValveBlockedOffload) {
  // A dead updating thread must never wedge a compute thread waiting at
  // the staleness valve. The armed accumulate fault poisons the updater
  // while the first batch is still counted in flight, so the second
  // offload either fails fast on the published poison or blocks at the
  // bound-1 valve until Poison's wakeup releases it — both within the
  // test's lifetime, neither a hang.
  auto options = UpdaterOptions();
  options.max_pending_batches_per_layer = 1;
  LockFreeUpdater updater(&allocator_, options);
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  ArmPermanent("updater.buffer_accumulate");
  updater.Start();
  ASSERT_TRUE(updater.OffloadGrads(0, {0.1f, 0.1f}).ok());
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  util::Status second = util::Status::OK();
  while (second.ok() && std::chrono::steady_clock::now() < poll_deadline) {
    second = updater.OffloadGrads(0, {0.1f, 0.1f});
  }
  EXPECT_TRUE(second.IsIoError()) << second;
  updater.Stop();
}

TEST_F(LockFreeUpdaterFaultTest, DrainDeadlineExceededWithoutProgress) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  ASSERT_TRUE(updater.OffloadGrads(0, {1.0f}).ok());
  // Threads are not running and the deadline is already past, so the one
  // pending batch cannot drain in time.
  const util::Status drained =
      updater.DrainUpdates(std::chrono::milliseconds(0));
  EXPECT_TRUE(drained.IsDeadlineExceeded()) << drained;
  EXPECT_NE(drained.message().find("1 gradient batches"), std::string::npos);

  // DeadlineExceeded is not terminal: a later drain with time to spare
  // applies the update inline and succeeds.
  EXPECT_TRUE(updater.status().ok());
  EXPECT_TRUE(updater.DrainUpdates().ok());
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.pending_grad_batches, 0u);
}

}  // namespace
}  // namespace angelptm::core
