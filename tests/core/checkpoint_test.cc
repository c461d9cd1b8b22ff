#include "core/checkpoint.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_test_util.h"
#include "train/dataset.h"
#include "train/mlp.h"
#include "train/trainer.h"
#include "util/random.h"

namespace angelptm::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : memory_(MemoryOptions()), allocator_(&memory_) {}

  static mem::HierarchicalMemoryOptions MemoryOptions() {
    mem::HierarchicalMemoryOptions options;
    options.page_bytes = 16 * 1024;
    options.gpu_capacity_bytes = 4ull << 20;
    options.cpu_capacity_bytes = 64ull << 20;
    options.ssd_capacity_bytes = 64ull << 20;
    options.ssd_path = TempPath("tier");
    return options;
  }

  static std::string TempPath(const std::string& tag) {
    static int counter = 0;
    return "/tmp/angelptm_ckpt_" + std::to_string(::getpid()) + "_" + tag +
           "_" + std::to_string(counter++) + ".bin";
  }

  std::unique_ptr<LockFreeUpdater> MakeUpdater(
      mem::DeviceKind master = mem::DeviceKind::kCpu) {
    LockFreeUpdater::Options options;
    options.optimizer.learning_rate = 0.05;
    options.master_device = master;
    auto updater = std::make_unique<LockFreeUpdater>(&allocator_, options);
    EXPECT_TRUE(updater->AddLayer({1.0f, 2.0f, 3.0f}).ok());
    EXPECT_TRUE(updater->AddLayer(std::vector<float>(64, 0.5f)).ok());
    return updater;
  }

  mem::HierarchicalMemory memory_;
  Allocator allocator_;
};

TEST_F(CheckpointTest, SaveLoadRoundTripRestoresExactState) {
  const std::string path = TempPath("roundtrip");
  auto updater = MakeUpdater();
  // Advance the state a bit.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(updater->OffloadGrads(0, {0.1f, -0.2f, 0.3f}).ok());
    ASSERT_TRUE(
        updater->OffloadGrads(1, std::vector<float>(64, 0.05f)).ok());
    ASSERT_TRUE(updater->UpdateOnce().ok());
  }
  std::vector<float> saved_p0, saved_p1;
  ASSERT_TRUE(updater->ReadMasterParams(0, &saved_p0).ok());
  ASSERT_TRUE(updater->ReadMasterParams(1, &saved_p1).ok());
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());

  // Keep training past the checkpoint (the "failure" happens here).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(updater->OffloadGrads(0, {1.0f, 1.0f, 1.0f}).ok());
    ASSERT_TRUE(updater->UpdateOnce().ok());
  }
  std::vector<float> diverged;
  ASSERT_TRUE(updater->ReadMasterParams(0, &diverged).ok());
  EXPECT_NE(diverged, saved_p0);

  // Recovery: a fresh updater restores the exact checkpointed state.
  auto recovered = MakeUpdater();
  ASSERT_TRUE(LoadCheckpoint(recovered.get(), path).ok());
  std::vector<float> restored_p0, restored_p1, buffered;
  ASSERT_TRUE(recovered->ReadMasterParams(0, &restored_p0).ok());
  ASSERT_TRUE(recovered->ReadMasterParams(1, &restored_p1).ok());
  EXPECT_EQ(restored_p0, saved_p0);
  EXPECT_EQ(restored_p1, saved_p1);
  // The fp16 compute view refreshed too (within fp16 rounding).
  ASSERT_TRUE(recovered->FetchParams(0, &buffered).ok());
  for (size_t i = 0; i < buffered.size(); ++i) {
    EXPECT_NEAR(buffered[i], saved_p0[i], 5e-3);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ResumedTrainingContinuesFromCheckpoint) {
  // Train 60 steps, checkpoint at 30, resume in a second trainer: the
  // resumed run must match the uninterrupted run exactly (identical
  // batches, deterministic Adam).
  const std::string path = TempPath("resume");
  const train::MlpModel model({{8, 16, 2}});
  train::SyntheticRegression dataset(8, 16, 2, 5);

  train::TrainerOptions options;
  options.optimizer.learning_rate = 3e-3;
  options.batch_size = 16;
  options.seed = 3;

  // Uninterrupted reference: 60 steps.
  train::Trainer reference(&allocator_, &model, options);
  ASSERT_TRUE(reference.Init().ok());
  ASSERT_TRUE(reference.Train(dataset, 60).ok());
  std::vector<float> reference_params;
  ASSERT_TRUE(
      reference.updater()->ReadMasterParams(0, &reference_params).ok());

  // Interrupted run: 30 steps, checkpoint, crash; new trainer replays the
  // SAME first 30 batches (same seed) to keep the data stream aligned,
  // then restores the checkpoint and trains the remaining 30.
  train::Trainer first_half(&allocator_, &model, options);
  ASSERT_TRUE(first_half.Init().ok());
  ASSERT_TRUE(first_half.Train(dataset, 30).ok());
  ASSERT_TRUE(SaveCheckpoint(first_half.updater(), path).ok());

  train::Trainer resumed(&allocator_, &model, options);
  ASSERT_TRUE(resumed.Init().ok());
  ASSERT_TRUE(resumed.Train(dataset, 30).ok());  // Advance the data stream.
  ASSERT_TRUE(LoadCheckpoint(resumed.updater(), path).ok());
  ASSERT_TRUE(resumed.Train(dataset, 30).ok());

  std::vector<float> resumed_params;
  ASSERT_TRUE(
      resumed.updater()->ReadMasterParams(0, &resumed_params).ok());
  ASSERT_EQ(resumed_params.size(), reference_params.size());
  for (size_t i = 0; i < resumed_params.size(); ++i) {
    EXPECT_NEAR(resumed_params[i], reference_params[i], 1e-5) << i;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, SsdResidentStatesCheckpointToo) {
  const std::string path = TempPath("ssd");
  auto updater = MakeUpdater(mem::DeviceKind::kSsd);
  ASSERT_TRUE(updater->OffloadGrads(0, {0.5f, 0.5f, 0.5f}).ok());
  ASSERT_TRUE(updater->UpdateOnce().ok());
  std::vector<float> before;
  ASSERT_TRUE(updater->ReadMasterParams(0, &before).ok());
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());

  auto recovered = MakeUpdater(mem::DeviceKind::kSsd);
  ASSERT_TRUE(LoadCheckpoint(recovered.get(), path).ok());
  std::vector<float> after;
  ASSERT_TRUE(recovered->ReadMasterParams(0, &after).ok());
  EXPECT_EQ(after, before);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CorruptCheckpointRejected) {
  const std::string path = TempPath("corrupt");
  auto updater = MakeUpdater();
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());

  // Flip one byte in the middle of the file.
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(40);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(40);
    byte ^= 0x5A;
    file.write(&byte, 1);
  }
  auto recovered = MakeUpdater();
  const util::Status loaded = LoadCheckpoint(recovered.get(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.IsIoError()) << loaded;

  // An intact file with a byte after its checksum is corrupt too.
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());
  std::ofstream(path, std::ios::binary | std::ios::app).put('x');
  EXPECT_TRUE(LoadCheckpoint(recovered.get(), path).IsIoError());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LayerMismatchRejected) {
  const std::string path = TempPath("mismatch");
  auto updater = MakeUpdater();
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());

  LockFreeUpdater::Options options;
  LockFreeUpdater single(&allocator_, options);
  ASSERT_TRUE(single.AddLayer({1.0f}).ok());
  EXPECT_TRUE(LoadCheckpoint(&single, path).IsInvalidArgument());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, MissingFileAndBadMagic) {
  auto updater = MakeUpdater();
  EXPECT_TRUE(
      LoadCheckpoint(updater.get(), "/tmp/angelptm_no_such_ckpt").IsNotFound());

  const std::string path = TempPath("magic");
  std::ofstream(path) << "this is not a checkpoint at all";
  EXPECT_TRUE(LoadCheckpoint(updater.get(), path).IsInvalidArgument());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RunningUpdaterSavesButRefusesLoad) {
  // Saving snapshots a *running* updater through the per-layer quiesce;
  // restoring still requires the threads stopped (it rewrites the state
  // they race on wholesale).
  const std::string path = TempPath("running");
  auto updater = MakeUpdater();
  updater->Start();
  ASSERT_TRUE(updater->OffloadGrads(0, {0.1f, 0.1f, 0.1f}).ok());
  EXPECT_TRUE(SaveCheckpoint(updater.get(), path).ok());
  EXPECT_EQ(LoadCheckpoint(updater.get(), path).code(),
            util::StatusCode::kFailedPrecondition);
  updater->Stop();

  auto recovered = MakeUpdater();
  EXPECT_TRUE(LoadCheckpoint(recovered.get(), path).ok());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ProgressRoundTrip) {
  const std::string path = TempPath("progress");
  auto updater = MakeUpdater();

  TrainProgress saved;
  saved.global_step = 1234;
  util::Rng rng(99);
  for (int i = 0; i < 7; ++i) (void)rng.NextGaussian();  // Odd count: cache live.
  saved.rng_state = rng.GetState();
  saved.loss_scale = 4096.0;
  saved.scaler_good_steps = 17;
  saved.scaler_overflows = 3;
  saved.scaler_growths = 5;
  uint64_t bytes = 0;
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path, &saved, &bytes).ok());
  EXPECT_GT(bytes, 0u);

  auto recovered = MakeUpdater();
  TrainProgress loaded;
  ASSERT_TRUE(LoadCheckpoint(recovered.get(), path, &loaded).ok());
  EXPECT_EQ(loaded.global_step, saved.global_step);
  EXPECT_EQ(loaded.rng_state.s, saved.rng_state.s);
  EXPECT_EQ(loaded.rng_state.has_cached_gaussian,
            saved.rng_state.has_cached_gaussian);
  EXPECT_EQ(loaded.rng_state.cached_gaussian, saved.rng_state.cached_gaussian);
  EXPECT_EQ(loaded.loss_scale, saved.loss_scale);
  EXPECT_EQ(loaded.scaler_good_steps, saved.scaler_good_steps);
  EXPECT_EQ(loaded.scaler_overflows, saved.scaler_overflows);
  EXPECT_EQ(loaded.scaler_growths, saved.scaler_growths);

  // A restored RNG continues the exact stream.
  util::Rng resumed(1);
  resumed.SetState(loaded.rng_state);
  EXPECT_EQ(resumed.NextGaussian(), rng.NextGaussian());
  EXPECT_EQ(resumed.NextDouble(), rng.NextDouble());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TruncationFailsLoudlyAtEveryOffset) {
  const std::string path = TempPath("torn");
  auto updater = MakeUpdater();
  ASSERT_TRUE(updater->OffloadGrads(0, {0.2f, 0.2f, 0.2f}).ok());
  ASSERT_TRUE(updater->UpdateOnce().ok());
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());

  std::ifstream sized(path, std::ios::binary | std::ios::ate);
  const long long full = sized.tellg();
  sized.close();
  ASSERT_GT(full, 120);

  // Cut the file inside every section: magic, version, progress block,
  // layer-count, layer header, layer payload, trailing checksum. A torn
  // write must never load and never crash.
  const long long cuts[] = {4, 10, 40, 90, 97, full - 300, full - 4};
  for (const long long cut : cuts) {
    ASSERT_GT(cut, 0) << "bad test offset";
    const std::string torn = TempPath("torn_cut");
    {
      std::ifstream in(path, std::ios::binary);
      std::vector<char> bytes(static_cast<size_t>(cut));
      in.read(bytes.data(), cut);
      std::ofstream out(torn, std::ios::binary);
      out.write(bytes.data(), cut);
    }
    auto recovered = MakeUpdater();
    const util::Status loaded = LoadCheckpoint(recovered.get(), torn);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_TRUE(loaded.IsIoError() || loaded.IsInvalidArgument())
        << "cut at " << cut << ": " << loaded;
    // Every failure names the file so the operator can find the bad one.
    EXPECT_NE(loaded.message().find(torn), std::string::npos)
        << "cut at " << cut << ": " << loaded;
    std::remove(torn.c_str());
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ByteFlipsCaughtPerSection) {
  const std::string path = TempPath("flip");
  auto updater = MakeUpdater();
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());
  std::ifstream sized(path, std::ios::binary | std::ios::ate);
  const long long full = sized.tellg();
  sized.close();

  struct Case {
    long long offset;
    const char* expect;  // Substring the error message must carry.
  };
  const Case cases[] = {
      {2, "is not a checkpoint"},              // Magic.
      {8, "unsupported checkpoint version"},   // Version word.
      {20, "checksum mismatch"},               // Progress block.
      {full - 40, "checksum mismatch"},        // Layer payload.
      {full - 4, "checksum mismatch"},         // The stored checksum itself.
  };
  for (const Case& c : cases) {
    const std::string flipped = TempPath("flip_case");
    {
      std::ifstream in(path, std::ios::binary);
      std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      bytes[size_t(c.offset)] ^= 0x5A;
      std::ofstream out(flipped, std::ios::binary);
      out.write(bytes.data(), long(bytes.size()));
    }
    auto recovered = MakeUpdater();
    const util::Status loaded = LoadCheckpoint(recovered.get(), flipped);
    ASSERT_FALSE(loaded.ok()) << "flip at " << c.offset;
    EXPECT_NE(loaded.message().find(c.expect), std::string::npos)
        << "flip at " << c.offset << ": " << loaded;
    std::remove(flipped.c_str());
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RandomizedLayoutsRoundTrip) {
  // Property test: arbitrary layer counts/sizes/Adam steps and a random
  // progress block survive the save/load cycle exactly.
  util::Rng rng(20260805);
  for (int trial = 0; trial < 8; ++trial) {
    const int num_layers = 1 + int(rng.NextDouble() * 5);
    std::vector<size_t> sizes;
    for (int l = 0; l < num_layers; ++l) {
      sizes.push_back(1 + size_t(rng.NextDouble() * 300));
    }
    auto make = [&]() {
      LockFreeUpdater::Options options;
      auto updater = std::make_unique<LockFreeUpdater>(&allocator_, options);
      for (const size_t n : sizes) {
        EXPECT_TRUE(updater->AddLayer(std::vector<float>(n, 0.0f)).ok());
      }
      return updater;
    };
    auto updater = make();
    std::vector<LockFreeUpdater::LayerState> want(num_layers);
    for (int l = 0; l < num_layers; ++l) {
      LockFreeUpdater::LayerState& state = want[l];
      state.step = long(rng.NextDouble() * 10000);
      state.params.resize(sizes[l]);
      state.slots.resize(2);
      state.slots[0].name = "m";
      state.slots[1].name = "v";
      state.slots[0].values.resize(sizes[l]);
      state.slots[1].values.resize(sizes[l]);
      for (size_t i = 0; i < sizes[l]; ++i) {
        state.params[i] = float(rng.NextGaussian());
        state.slots[0].values[i] = float(rng.NextGaussian());
        state.slots[1].values[i] = float(rng.NextDouble());
      }
      ASSERT_TRUE(updater->ImportLayerState(l, state).ok());
    }
    TrainProgress progress;
    progress.global_step = int64_t(rng.NextDouble() * 1000000);
    progress.rng_state = rng.GetState();
    progress.loss_scale = rng.NextDouble() * 65536.0;

    const std::string path = TempPath("prop");
    ASSERT_TRUE(SaveCheckpoint(updater.get(), path, &progress).ok());
    auto recovered = make();
    TrainProgress loaded;
    ASSERT_TRUE(LoadCheckpoint(recovered.get(), path, &loaded).ok());
    EXPECT_EQ(loaded.global_step, progress.global_step);
    EXPECT_EQ(loaded.rng_state.s, progress.rng_state.s);
    EXPECT_EQ(loaded.loss_scale, progress.loss_scale);
    for (int l = 0; l < num_layers; ++l) {
      LockFreeUpdater::LayerState got;
      ASSERT_TRUE(ReadLayerState(recovered.get(), l, &got).ok());
      EXPECT_EQ(got.step, want[l].step) << "layer " << l;
      EXPECT_EQ(got.params, want[l].params) << "layer " << l;
      ASSERT_EQ(got.slots.size(), 2u) << "layer " << l;
      EXPECT_EQ(got.slots[0].values, want[l].slots[0].values)
          << "layer " << l;
      EXPECT_EQ(got.slots[1].values, want[l].slots[1].values)
          << "layer " << l;
    }
    std::remove(path.c_str());
  }
}

TEST_F(CheckpointTest, V1AndV2FilesAreRefusedNamingTheVersion) {
  // Complete hand-written v1 and v2 files, checksum included: layers of
  // count | adam_step | p32 | m32 | v32, and v2's 77-byte progress block
  // between the version word and the layer count. Only v3 parses now, so
  // the version word alone refuses them.
  const std::vector<float> values = {1.5f, -2.5f, 3.5f};
  for (const uint32_t version : {1u, 2u}) {
    std::vector<char> bytes;
    auto put = [&bytes](const void* data, size_t n) {
      const char* c = static_cast<const char*>(data);
      bytes.insert(bytes.end(), c, c + n);
    };
    put("APTMCKPT", 8);
    put(&version, 4);
    if (version == 2) {
      const std::vector<char> progress(77, 0);
      put(progress.data(), progress.size());
    }
    const uint32_t num_layers = 1;
    const uint64_t count = values.size();
    const int64_t adam_step = 7;
    put(&num_layers, 4);
    put(&count, 8);
    put(&adam_step, 8);
    for (int block = 0; block < 3; ++block) {
      put(values.data(), values.size() * sizeof(float));
    }
    uint64_t hash = 14695981039346656037ull;
    for (const char byte : bytes) {
      hash ^= static_cast<unsigned char>(byte);
      hash *= 1099511628211ull;
    }
    put(&hash, 8);
    const std::string path = TempPath("v" + std::to_string(version));
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), long(bytes.size()));

    const util::Status status = ParseCheckpoint(path).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status;
    EXPECT_NE(status.message().find("version " + std::to_string(version)),
              std::string::npos)
        << status;
    std::remove(path.c_str());
  }
}

TEST_F(CheckpointTest, RuleMismatchRejected) {
  // A checkpoint written under one rule must not silently load into an
  // updater running a different one — the slot semantics differ.
  const std::string path = TempPath("rule");
  auto updater = MakeUpdater();
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());

  LockFreeUpdater::Options options;
  options.optimizer.rule = "sgdm";
  LockFreeUpdater sgdm(&allocator_, options);
  ASSERT_TRUE(sgdm.AddLayer({1.0f, 2.0f, 3.0f}).ok());
  ASSERT_TRUE(sgdm.AddLayer(std::vector<float>(64, 0.5f)).ok());
  const util::Status loaded = LoadCheckpoint(&sgdm, path);
  ASSERT_TRUE(loaded.IsInvalidArgument()) << loaded;
  EXPECT_NE(loaded.message().find("adam"), std::string::npos) << loaded;
  EXPECT_NE(loaded.message().find("sgdm"), std::string::npos) << loaded;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, V3RoundTripPreservesRuleAndSlots) {
  // Non-Adam rules round-trip their self-describing slot blocks: adafactor
  // has differently-sized row/col slots, the strongest layout test.
  const std::string path = TempPath("v3");
  LockFreeUpdater::Options options;
  options.optimizer.rule = "adafactor";
  options.optimizer.adafactor_cols = 8;
  auto make = [&]() {
    auto updater = std::make_unique<LockFreeUpdater>(&allocator_, options);
    EXPECT_TRUE(updater->AddLayer(std::vector<float>(20, 1.0f)).ok());
    return updater;
  };
  auto updater = make();
  ASSERT_TRUE(updater->OffloadGrads(0, std::vector<float>(20, 0.3f)).ok());
  ASSERT_TRUE(updater->UpdateOnce().ok());
  LockFreeUpdater::LayerState want;
  ASSERT_TRUE(ReadLayerState(updater.get(), 0, &want).ok());
  ASSERT_EQ(want.slots.size(), 2u);
  EXPECT_EQ(want.slots[0].name, "row");
  EXPECT_EQ(want.slots[1].name, "col");
  EXPECT_NE(want.slots[0].values.size(), want.slots[1].values.size());
  ASSERT_TRUE(SaveCheckpoint(updater.get(), path).ok());

  auto recovered = make();
  ASSERT_TRUE(LoadCheckpoint(recovered.get(), path).ok());
  LockFreeUpdater::LayerState got;
  ASSERT_TRUE(ReadLayerState(recovered.get(), 0, &got).ok());
  EXPECT_EQ(got.params, want.params);
  EXPECT_EQ(got.step, want.step);
  ASSERT_EQ(got.slots.size(), 2u);
  EXPECT_EQ(got.slots[0].values, want.slots[0].values);
  EXPECT_EQ(got.slots[1].values, want.slots[1].values);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CountLargerThanTheFileIsRejectedBeforeAllocating) {
  // A one-layer, 100-parameter Adam checkpoint: the p32 count sits at byte
  // 101 (after the 97-byte header and the layer count), the first slot's
  // count at 526 (after p32 and the slot name "m"). A count of 2^62 is
  // corruption the loader must reject from the bytes left in the file,
  // before it sizes anything by it.
  const std::string path = TempPath("count");
  LockFreeUpdater::Options options;
  LockFreeUpdater updater(&allocator_, options);
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(100, 0.5f)).ok());
  ASSERT_TRUE(SaveCheckpoint(&updater, path).ok());
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const struct {
    size_t offset;
    const char* section;
  } cases[] = {{101, "layer 0 p32"}, {526, "layer 0 slot 0"}};
  for (const auto& c : cases) {
    uint64_t count = 0;
    std::memcpy(&count, bytes.data() + c.offset, sizeof(count));
    ASSERT_EQ(count, 100u) << "offset " << c.offset << " is not a count";
    std::vector<char> corrupt = bytes;
    const uint64_t implausible = uint64_t(1) << 62;
    std::memcpy(corrupt.data() + c.offset, &implausible, sizeof(implausible));
    const std::string corrupt_path = TempPath("count_case");
    std::ofstream(corrupt_path, std::ios::binary)
        .write(corrupt.data(), long(corrupt.size()));

    LockFreeUpdater recovered(&allocator_, options);
    ASSERT_TRUE(recovered.AddLayer(std::vector<float>(100, 0.0f)).ok());
    const util::Status loaded = LoadCheckpoint(&recovered, corrupt_path);
    EXPECT_TRUE(loaded.IsIoError()) << loaded;
    EXPECT_NE(loaded.message().find(corrupt_path), std::string::npos)
        << loaded;
    EXPECT_NE(loaded.message().find(c.section), std::string::npos) << loaded;
    std::remove(corrupt_path.c_str());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace angelptm::core
