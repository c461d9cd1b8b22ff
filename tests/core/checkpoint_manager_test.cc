#include "core/checkpoint_manager.h"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_test_util.h"
#include "core/allocator.h"
#include "mem/hierarchical_memory.h"
#include "util/fault_injector.h"

namespace angelptm::core {
namespace {

class CheckpointManagerTest : public ::testing::Test {
 protected:
  CheckpointManagerTest() : memory_(MemoryOptions()), allocator_(&memory_) {}

  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override {
    util::FaultInjector::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }

  static mem::HierarchicalMemoryOptions MemoryOptions() {
    mem::HierarchicalMemoryOptions options;
    options.page_bytes = 16 * 1024;
    options.gpu_capacity_bytes = 4ull << 20;
    options.cpu_capacity_bytes = 64ull << 20;
    options.ssd_capacity_bytes = 16ull << 20;
    options.ssd_path = "/tmp/angelptm_ckptmgr_tier_" +
                       std::to_string(::getpid()) + ".bin";
    return options;
  }

  std::string FreshDir(const char* tag) {
    dir_ = "/tmp/angelptm_ckptmgr_" + std::to_string(::getpid()) + "_" + tag;
    std::filesystem::remove_all(dir_);
    return dir_;
  }

  std::unique_ptr<LockFreeUpdater> MakeUpdater(
      mem::DeviceKind master = mem::DeviceKind::kCpu) {
    LockFreeUpdater::Options options;
    options.master_device = master;
    auto updater = std::make_unique<LockFreeUpdater>(&allocator_, options);
    EXPECT_TRUE(updater->AddLayer({1.0f, 2.0f, 3.0f}).ok());
    return updater;
  }

  static TrainProgress ProgressAt(int64_t step) {
    TrainProgress progress;
    progress.global_step = step;
    return progress;
  }

  mem::HierarchicalMemory memory_;
  Allocator allocator_;
  std::string dir_;
};

TEST_F(CheckpointManagerTest, RotationKeepsOnlyLastK) {
  CheckpointManager::Options options;
  options.dir = FreshDir("rotate");
  options.keep_last = 2;
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeUpdater();

  for (int64_t step : {10, 20, 30, 40}) {
    ASSERT_TRUE(updater->OffloadGrads(0, {0.1f, 0.1f, 0.1f}).ok());
    ASSERT_TRUE(updater->UpdateOnce().ok());
    ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(step)).ok());
  }
  ASSERT_TRUE(manager.Flush().ok());
  const std::vector<std::string> files = manager.ListCheckpoints();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], manager.PathForStep(30));
  EXPECT_EQ(files[1], manager.PathForStep(40));
  EXPECT_FALSE(std::filesystem::exists(manager.PathForStep(10)));
  EXPECT_FALSE(std::filesystem::exists(manager.PathForStep(20)));

  const CheckpointManager::Stats stats = manager.Snapshot();
  EXPECT_EQ(stats.saves, 4u);
  EXPECT_EQ(stats.save_failures, 0u);
  EXPECT_EQ(stats.last_saved_step, 40);
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_EQ(stats.save_us.count, 4u);
}

TEST_F(CheckpointManagerTest, RotationFailureIsCountedNotFatal) {
  CheckpointManager::Options options;
  options.dir = FreshDir("rotatefail");
  options.keep_last = 1;
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeUpdater();
  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(10)).ok());
  ASSERT_TRUE(manager.Flush().ok());

  // An undeletable entry where an old checkpoint would be: a non-empty
  // directory named like a step-5 checkpoint. Rotation used to drop the
  // std::filesystem::remove result on the floor; it must now count the
  // failure, still delete what it can, and keep the save green.
  const std::string stuck = manager.PathForStep(5);
  std::filesystem::create_directory(stuck);
  std::ofstream(stuck + "/pin").put('x');

  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(20)).ok());
  ASSERT_TRUE(manager.Flush().ok());
  const CheckpointManager::Stats stats = manager.Snapshot();
  EXPECT_EQ(stats.saves, 2u);
  EXPECT_EQ(stats.rotate_failures, 1u);
  EXPECT_FALSE(std::filesystem::exists(manager.PathForStep(10)));
  EXPECT_TRUE(std::filesystem::exists(manager.PathForStep(20)));
  EXPECT_TRUE(std::filesystem::exists(stuck));
}

TEST_F(CheckpointManagerTest, LoadLatestFallsBackPastCorruptNewest) {
  CheckpointManager::Options options;
  options.dir = FreshDir("fallback");
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeUpdater();

  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(10)).ok());
  std::vector<float> good_params;
  ASSERT_TRUE(updater->ReadMasterParams(0, &good_params).ok());

  ASSERT_TRUE(updater->OffloadGrads(0, {1.0f, 1.0f, 1.0f}).ok());
  ASSERT_TRUE(updater->UpdateOnce().ok());
  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(20)).ok());
  ASSERT_TRUE(manager.Flush().ok());

  // Corrupt the newest file (flip a byte in the middle).
  {
    std::fstream file(manager.PathForStep(20),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(60);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(60);
    byte ^= 0x5A;
    file.write(&byte, 1);
  }

  auto recovered = MakeUpdater();
  auto progress = manager.LoadLatest(recovered.get());
  ASSERT_TRUE(progress.ok()) << progress.status();
  EXPECT_EQ(progress->global_step, 10);  // The previous checkpoint won.
  std::vector<float> restored;
  ASSERT_TRUE(recovered->ReadMasterParams(0, &restored).ok());
  EXPECT_EQ(restored, good_params);
  // The corrupt file is skipped, counted, and left for post-mortems.
  EXPECT_EQ(manager.Snapshot().fallbacks, 1u);
  EXPECT_EQ(manager.Snapshot().loads, 1u);
  EXPECT_TRUE(std::filesystem::exists(manager.PathForStep(20)));
}

TEST_F(CheckpointManagerTest, LoadLatestFallsBackPastAnImplausibleCount) {
  // The newest file claims 2^62 parameters in its one layer (the p32 count
  // sits at byte 101). Loading it must fail like any corruption, not abort
  // or allocate, so the restart falls back to the previous file.
  CheckpointManager::Options options;
  options.dir = FreshDir("count");
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeUpdater();
  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(10)).ok());
  ASSERT_TRUE(updater->OffloadGrads(0, {1.0f, 1.0f, 1.0f}).ok());
  ASSERT_TRUE(updater->UpdateOnce().ok());
  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(20)).ok());
  ASSERT_TRUE(manager.Flush().ok());
  {
    std::fstream file(manager.PathForStep(20),
                      std::ios::in | std::ios::out | std::ios::binary);
    uint64_t count = 0;
    file.seekg(101);
    file.read(reinterpret_cast<char*>(&count), sizeof(count));
    ASSERT_EQ(count, 3u);
    count = uint64_t(1) << 62;
    file.seekp(101);
    file.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }

  auto recovered = MakeUpdater();
  auto progress = manager.LoadLatest(recovered.get());
  ASSERT_TRUE(progress.ok()) << progress.status();
  EXPECT_EQ(progress->global_step, 10);
  EXPECT_EQ(manager.Snapshot().fallbacks, 1u);
}

TEST_F(CheckpointManagerTest, KeepLastBelowOneKeepsOne) {
  CheckpointManager::Options options;
  options.dir = FreshDir("keepzero");
  options.keep_last = 0;
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeUpdater();
  for (int64_t step : {10, 20}) {
    ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(step)).ok());
  }
  ASSERT_TRUE(manager.Flush().ok());
  EXPECT_EQ(manager.ListCheckpoints(),
            std::vector<std::string>{manager.PathForStep(20)});
}

TEST_F(CheckpointManagerTest, EmptyDirectoryIsNotFound) {
  CheckpointManager::Options options;
  options.dir = FreshDir("empty");
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeUpdater();
  EXPECT_TRUE(manager.LoadLatest(updater.get()).status().IsNotFound());
  EXPECT_TRUE(manager.ListCheckpoints().empty());
}

TEST_F(CheckpointManagerTest, FailedSaveLeavesExistingCheckpointsIntact) {
  // The failpoints fire on the background writer: the cut succeeds, and the
  // persist's error surfaces at the next Flush (or Save). SSD masters, so
  // the failed persists must also release every frame they pinned.
  CheckpointManager::Options options;
  options.dir = FreshDir("savefail");
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeUpdater(mem::DeviceKind::kSsd);
  mem::SsdTier* ssd = memory_.ssd();
  const size_t free_frames = ssd->free_frames();
  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(10)).ok());
  ASSERT_TRUE(manager.Flush().ok());

  util::FaultRule rule;
  rule.nth_call = 1;
  util::FaultInjector::Instance().Arm("checkpoint.write", rule);
  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(20)).ok());
  const util::Status write_failed = manager.Flush();
  EXPECT_TRUE(write_failed.IsIoError()) << write_failed;
  EXPECT_NE(write_failed.message().find(manager.PathForStep(20)),
            std::string::npos)
      << write_failed;
  EXPECT_TRUE(manager.Flush().ok());  // Reported once.
  EXPECT_EQ(ssd->pinned_frames(), 0u);
  EXPECT_EQ(ssd->free_frames(), free_frames);

  rule = util::FaultRule();
  rule.nth_call = 1;
  util::FaultInjector::Instance().Arm("checkpoint.rename", rule);
  ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(30)).ok());
  // The next Save returns the failed persist's error and still cuts.
  const util::Status rename_failed =
      manager.Save(updater.get(), ProgressAt(40));
  EXPECT_TRUE(rename_failed.IsIoError()) << rename_failed;
  EXPECT_NE(rename_failed.message().find(manager.PathForStep(30)),
            std::string::npos)
      << rename_failed;
  ASSERT_TRUE(manager.Flush().ok());
  EXPECT_EQ(ssd->pinned_frames(), 0u);
  EXPECT_EQ(ssd->free_frames(), free_frames);

  const CheckpointManager::Stats stats = manager.Snapshot();
  EXPECT_EQ(stats.saves, 2u);
  EXPECT_EQ(stats.save_failures, 2u);
  EXPECT_EQ(stats.last_saved_step, 40);
  // No tmp litter was published, and the older checkpoint still loads.
  EXPECT_EQ(manager.ListCheckpoints(),
            (std::vector<std::string>{manager.PathForStep(10),
                                      manager.PathForStep(40)}));
  std::filesystem::remove(manager.PathForStep(40));
  auto recovered = MakeUpdater(mem::DeviceKind::kSsd);
  auto progress = manager.LoadLatest(recovered.get());
  ASSERT_TRUE(progress.ok()) << progress.status();
  EXPECT_EQ(progress->global_step, 10);
}

TEST_F(CheckpointManagerTest, InitDeletesPartialCheckpoints) {
  CheckpointManager::Options options;
  options.dir = FreshDir("tmpclean");
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  const std::string stray = manager.PathForStep(20) + ".tmp";
  const std::string other = options.dir + "/notes.tmp";
  std::ofstream(stray).put('x');
  std::ofstream(other).put('x');
  ASSERT_TRUE(manager.Init().ok());
  EXPECT_FALSE(std::filesystem::exists(stray));
  EXPECT_TRUE(std::filesystem::exists(other));  // Not a checkpoint's.
}

/// Three layers over several 16 KiB pages, with tails sharing pages, in
/// hand-set states: no optimizer arithmetic, so the bytes are the same on
/// every SIMD path.
std::unique_ptr<LockFreeUpdater> MakeFormatUpdater(Allocator* allocator,
                                                   mem::DeviceKind master) {
  LockFreeUpdater::Options options;
  options.master_device = master;
  auto updater = std::make_unique<LockFreeUpdater>(allocator, options);
  const std::vector<size_t> counts = {3, 5000, 9001};
  for (size_t l = 0; l < counts.size(); ++l) {
    EXPECT_TRUE(updater->AddLayer(std::vector<float>(counts[l], 0.0f)).ok());
    LockFreeUpdater::LayerState state;
    state.step = long(7 + l);
    std::vector<float> m(counts[l]), v(counts[l]);
    state.params.resize(counts[l]);
    for (size_t i = 0; i < counts[l]; ++i) {
      state.params[i] = float(int(i % 97) - 48) * 0.125f + float(l);
      m[i] = float(i % 13) * 0.5f;
      v[i] = float(i % 7) * 0.25f + 1.0f;
    }
    state.slots = {{"m", m}, {"v", v}};
    EXPECT_TRUE(updater->ImportLayerState(int(l), state).ok());
  }
  return updater;
}

TEST_F(CheckpointManagerTest, BackgroundSaveWritesTheSynchronousFormat) {
  // The size and FNV-1a-64 of the whole file SaveCheckpoint wrote for this
  // state before saves moved to the background writer: the split must not
  // change a byte, whichever tier the masters live on.
  constexpr size_t kFileBytes = 168295;
  constexpr uint64_t kFileFnv = 0x7da81d800dcfadb8ull;
  TrainProgress progress = ProgressAt(12345);
  progress.rng_state.s = {1, 2, 3, 4};
  progress.rng_state.has_cached_gaussian = true;
  progress.rng_state.cached_gaussian = 0.5;
  progress.loss_scale = 2048.0;
  progress.scaler_good_steps = 17;
  progress.scaler_overflows = 3;
  progress.scaler_growths = 5;
  for (const mem::DeviceKind master :
       {mem::DeviceKind::kCpu, mem::DeviceKind::kSsd}) {
    SCOPED_TRACE(mem::DeviceKindName(master));
    CheckpointManager::Options options;
    options.dir = FreshDir("format");
    CheckpointManager manager(options);
    ASSERT_TRUE(manager.Init().ok());
    auto updater = MakeFormatUpdater(&allocator_, master);
    ASSERT_TRUE(manager.Save(updater.get(), progress).ok());
    ASSERT_TRUE(manager.Flush().ok());
    std::ifstream in(manager.PathForStep(12345), std::ios::binary);
    const std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    uint64_t fnv = 14695981039346656037ull;
    for (const unsigned char byte : bytes) {
      fnv ^= byte;
      fnv *= 1099511628211ull;
    }
    EXPECT_EQ(bytes.size(), kFileBytes);
    EXPECT_EQ(fnv, kFileFnv);
    EXPECT_EQ(manager.Snapshot().bytes_written, kFileBytes);
  }
}

/// Every layer's state, read through a cut.
std::vector<LockFreeUpdater::LayerState> AllLayerStates(
    LockFreeUpdater* updater) {
  std::vector<LockFreeUpdater::LayerState> states(updater->num_layers());
  for (int l = 0; l < updater->num_layers(); ++l) {
    EXPECT_TRUE(ReadLayerState(updater, l, &states[l]).ok());
  }
  return states;
}

void ExpectSameStates(const std::vector<LockFreeUpdater::LayerState>& got,
                      const std::vector<LockFreeUpdater::LayerState>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t l = 0; l < want.size(); ++l) {
    EXPECT_EQ(got[l].step, want[l].step) << "layer " << l;
    EXPECT_EQ(got[l].params, want[l].params) << "layer " << l;
    ASSERT_EQ(got[l].slots.size(), want[l].slots.size()) << "layer " << l;
    for (size_t s = 0; s < want[l].slots.size(); ++s) {
      EXPECT_EQ(got[l].slots[s].values, want[l].slots[s].values)
          << "layer " << l << " slot " << s;
    }
  }
}

TEST_F(CheckpointManagerTest, PinnedCutSurvivesUpdatesBeforeThePersist) {
  // Copy-on-write through frame pins: cut, let the updater rewrite every
  // layer's SSD masters, and only then persist. The file must hold the
  // cut-time masters and per-layer steps, and every pinned frame must be
  // back in the free list afterwards.
  auto updater = MakeFormatUpdater(&allocator_, mem::DeviceKind::kSsd);
  mem::SsdTier* ssd = memory_.ssd();
  const size_t free_frames = ssd->free_frames();
  const std::vector<LockFreeUpdater::LayerState> want =
      AllLayerStates(updater.get());
  EXPECT_EQ(ssd->pinned_frames(), 0u);

  CheckpointCut cut;
  ASSERT_TRUE(CutCheckpoint(updater.get(), nullptr, &cut).ok());
  EXPECT_GT(ssd->pinned_frames(), 0u);
  for (int l = 0; l < updater->num_layers(); ++l) {
    const std::vector<float> grads(want[l].params.size(), 0.25f);
    ASSERT_TRUE(updater->OffloadGrads(l, grads).ok());
  }
  ASSERT_TRUE(updater->UpdateOnce().ok());
  // The pinned frames of the old generation are still held.
  EXPECT_LT(ssd->free_frames(), free_frames);
  const std::vector<LockFreeUpdater::LayerState> updated =
      AllLayerStates(updater.get());
  for (int l = 0; l < updater->num_layers(); ++l) {
    EXPECT_EQ(updated[l].step, want[l].step + 1);
    EXPECT_NE(updated[l].params, want[l].params);
  }

  const std::string path = FreshDir("cow") + ".ckpt";
  ASSERT_TRUE(PersistCheckpoint(&cut, path).ok());
  EXPECT_EQ(ssd->pinned_frames(), 0u);
  EXPECT_EQ(ssd->free_frames(), free_frames);
  auto recovered = MakeFormatUpdater(&allocator_, mem::DeviceKind::kSsd);
  ASSERT_TRUE(LoadCheckpoint(recovered.get(), path).ok());
  ExpectSameStates(AllLayerStates(recovered.get()), want);
  std::filesystem::remove(path);
}

TEST_F(CheckpointManagerTest, SaveOnARunningUpdaterPersistsTheCut) {
  // The manager end to end: the cut is taken while the lock-free threads
  // run, gradients for every layer arrive right after it, and the updates
  // race the background persist. The file holds the cut; the tier gets
  // every frame back.
  CheckpointManager::Options options;
  options.dir = FreshDir("running");
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  auto updater = MakeFormatUpdater(&allocator_, mem::DeviceKind::kSsd);
  mem::SsdTier* ssd = memory_.ssd();
  const size_t free_frames = ssd->free_frames();
  updater->Start();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(updater->DrainUpdates().ok());
    const std::vector<LockFreeUpdater::LayerState> want =
        AllLayerStates(updater.get());
    const int64_t step = 100 + round;
    ASSERT_TRUE(manager.Save(updater.get(), ProgressAt(step)).ok());
    for (int l = updater->num_layers() - 1; l >= 0; --l) {
      const std::vector<float> grads(want[l].params.size(), 0.5f);
      ASSERT_TRUE(updater->OffloadGrads(l, grads).ok());
    }
    ASSERT_TRUE(manager.Flush().ok());
    ASSERT_TRUE(updater->DrainUpdates().ok());
    EXPECT_EQ(ssd->pinned_frames(), 0u);
    EXPECT_EQ(ssd->free_frames(), free_frames);

    auto recovered = MakeFormatUpdater(&allocator_, mem::DeviceKind::kCpu);
    ASSERT_TRUE(LoadCheckpoint(recovered.get(), manager.PathForStep(step))
                    .ok());
    ExpectSameStates(AllLayerStates(recovered.get()), want);
  }
  updater->Stop();
  EXPECT_TRUE(updater->status().ok());
}

TEST_F(CheckpointManagerTest, UpdaterWaitsForPinnedLayersWhenTheTierIsFull) {
  // A tier with room for the masters plus less than one more layer
  // generation: updating a pinned layer must wait for the persist to
  // unpin it — counted, never a poisoned updater.
  mem::HierarchicalMemoryOptions memory_options = MemoryOptions();
  memory_options.ssd_path += ".tight";
  // Each layer's m shares p32's tail page: layer 2's masters take 8
  // frames, layer 1's 5 and layer 0's 2. 15 frames, plus 5 free.
  memory_options.ssd_capacity_bytes = 20 * memory_options.page_bytes;
  mem::HierarchicalMemory memory(memory_options);
  Allocator allocator(&memory);
  auto updater = MakeFormatUpdater(&allocator, mem::DeviceKind::kSsd);
  mem::SsdTier* ssd = memory.ssd();
  const size_t free_frames = ssd->free_frames();
  ASSERT_LT(free_frames, 8u);
  const std::vector<LockFreeUpdater::LayerState> want =
      AllLayerStates(updater.get());

  CheckpointCut cut;
  ASSERT_TRUE(CutCheckpoint(updater.get(), nullptr, &cut).ok());
  updater->Start();
  for (int l = updater->num_layers() - 1; l >= 0; --l) {
    const std::vector<float> grads(want[l].params.size(), 0.5f);
    ASSERT_TRUE(updater->OffloadGrads(l, grads).ok());
  }
  // The updating thread reaches the last layer first and must block there.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (updater->Snapshot().pin_waits == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(updater->Snapshot().pin_waits, 0u);
  const std::string path = FreshDir("tight") + ".ckpt";
  ASSERT_TRUE(PersistCheckpoint(&cut, path).ok());
  ASSERT_TRUE(updater->DrainUpdates(std::chrono::milliseconds(10000)).ok());
  updater->Stop();
  EXPECT_TRUE(updater->status().ok());
  EXPECT_EQ(ssd->pinned_frames(), 0u);
  EXPECT_EQ(ssd->free_frames(), free_frames);
  const std::vector<LockFreeUpdater::LayerState> updated =
      AllLayerStates(updater.get());
  for (size_t l = 0; l < want.size(); ++l) {
    EXPECT_EQ(updated[l].step, want[l].step + 1) << "layer " << l;
  }
  auto recovered = MakeFormatUpdater(&allocator, mem::DeviceKind::kCpu);
  ASSERT_TRUE(LoadCheckpoint(recovered.get(), path).ok());
  ExpectSameStates(AllLayerStates(recovered.get()), want);
  std::filesystem::remove(path);
}

TEST_F(CheckpointManagerTest, PathForStepIsStable) {
  CheckpointManager::Options options;
  options.dir = FreshDir("paths");
  CheckpointManager manager(options);
  EXPECT_EQ(manager.PathForStep(42), dir_ + "/ckpt-000000042.ckpt");
}

}  // namespace
}  // namespace angelptm::core
