#include "train/engine_trainer.h"

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "train/kernels.h"
#include "train/mlp.h"
#include "train/transformer.h"

namespace angelptm::train {
namespace {

EngineTrainerOptions BaseOptions(uint64_t gpu_pages = 16) {
  EngineTrainerOptions options;
  options.engine.memory.page_bytes = 16 * 1024;
  options.engine.memory.gpu_capacity_bytes = gpu_pages * 16 * 1024;
  options.engine.memory.cpu_capacity_bytes = 32ull << 20;
  options.engine.optimizer.learning_rate = 3e-3;
  options.batch_size = 32;
  options.seed = 7;
  return options;
}

TEST(EngineTrainerTest, ConvergesWithActivationOffloading) {
  const MlpModel model({{16, 64, 64, 4}});
  EngineTrainer trainer(&model, BaseOptions());
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 250);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->validation_loss, 0.25);
  // The engine really scheduled: a schedule exists and prefetches hit.
  ASSERT_NE(trainer.engine()->schedule(), nullptr);
  EXPECT_GT(trainer.engine()->prefetch_hits(), 0u);
}

TEST(EngineTrainerTest, MatchesDirectTrainerExactly) {
  // The engine path reads the same fp16 buffers and offloads the same
  // gradients as the direct trainer: with identical seeds and batches, the
  // synchronous results must be bit-identical (fp16->fp32->fp16 staging is
  // the identity). Activation offloading is off so backward sees the exact
  // forward stash in both.
  SyntheticRegression dataset(16, 32, 4, 99);
  const MlpModel model({{16, 32, 4}});

  EngineTrainerOptions engine_options = BaseOptions();
  engine_options.offload_activations = false;
  EngineTrainer engine_trainer(&model, engine_options);
  ASSERT_TRUE(engine_trainer.Init().ok());
  auto engine_report = engine_trainer.Train(dataset, 60);
  ASSERT_TRUE(engine_report.ok());

  mem::HierarchicalMemoryOptions memory_options;
  memory_options.page_bytes = 16 * 1024;
  memory_options.gpu_capacity_bytes = 4ull << 20;
  memory_options.cpu_capacity_bytes = 32ull << 20;
  mem::HierarchicalMemory memory(memory_options);
  core::Allocator allocator(&memory);
  TrainerOptions direct_options;
  direct_options.optimizer.learning_rate = 3e-3;
  direct_options.batch_size = 32;
  direct_options.seed = 7;
  Trainer direct_trainer(&allocator, &model, direct_options);
  ASSERT_TRUE(direct_trainer.Init().ok());
  auto direct_report = direct_trainer.Train(dataset, 60);
  ASSERT_TRUE(direct_report.ok());

  ASSERT_EQ(engine_report->losses.size(), direct_report->losses.size());
  for (size_t i = 0; i < engine_report->losses.size(); ++i) {
    EXPECT_EQ(engine_report->losses[i], direct_report->losses[i]) << i;
  }
  EXPECT_EQ(engine_report->validation_loss, direct_report->validation_loss);
  // One report path: the fields neither backend scales agree too.
  EXPECT_EQ(engine_report->final_loss_scale, direct_report->final_loss_scale);
  EXPECT_EQ(engine_report->overflow_steps_skipped,
            direct_report->overflow_steps_skipped);
  auto engine_valid = engine_trainer.Validate(dataset, 8);
  auto direct_valid = direct_trainer.Validate(dataset, 8);
  ASSERT_TRUE(engine_valid.ok()) << engine_valid.status();
  ASSERT_TRUE(direct_valid.ok()) << direct_valid.status();
  EXPECT_EQ(*engine_valid, *direct_valid);
  EXPECT_EQ(*engine_valid, engine_report->validation_loss);
}

TEST(EngineTrainerTest, OffloadedActivationsStayCloseToUnoffloaded) {
  // fp16 boundary stashes + recompute vs exact host stash: small, bounded
  // quality difference.
  SyntheticRegression dataset(16, 32, 4, 99);
  const MlpModel model({{16, 64, 4}});
  double offloaded = 0, exact = 0;
  for (const bool offload : {true, false}) {
    EngineTrainerOptions options = BaseOptions();
    options.offload_activations = offload;
    EngineTrainer trainer(&model, options);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 200);
    ASSERT_TRUE(report.ok());
    (offload ? offloaded : exact) = report->validation_loss;
  }
  EXPECT_LT(offloaded, 0.3);
  EXPECT_LT(offloaded, exact * 5 + 0.05);
}

TEST(EngineTrainerTest, LockFreeEngineTraining) {
  const MlpModel model({{16, 64, 4}});
  EngineTrainerOptions options = BaseOptions();
  options.engine.lock_free = true;
  EngineTrainer trainer(&model, options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 150);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->validation_loss, 0.6);
  EXPECT_GT(report->telemetry.updater.updates_applied, 0u);
}

TEST(EngineTrainerTest, TransformerThroughFullStack) {
  TransformerConfig config;
  config.seq_len = 4;
  config.d_model = 8;
  config.num_heads = 2;
  config.d_ffn = 16;
  config.num_blocks = 2;
  config.out_dim = 2;
  const TinyTransformer model(config);
  EngineTrainerOptions options = BaseOptions();
  options.batch_size = 8;
  EngineTrainer trainer(&model, options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(model.InputSize(), 16, model.OutputSize(), 99);
  auto report = trainer.Train(dataset, 100);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->final_train_loss, report->losses.front());
}

TEST(EngineTrainerTest, SharedOffloadStashMatchesAFreshStashPerLayer) {
  // With activation offload the paged step computes every layer's
  // interiors into one stash, which the recompute refills just before each
  // Backward. A loop driving the same Engine protocol with a fresh stash
  // per layer per step, and no stash in forward, must reproduce its losses
  // and validation loss bit for bit.
  TransformerConfig config;
  config.seq_len = 4;
  config.d_model = 8;
  config.num_heads = 2;
  config.d_ffn = 16;
  config.num_blocks = 2;
  config.out_dim = 2;
  const TinyTransformer model(config);
  EngineTrainerOptions options = BaseOptions();
  options.batch_size = 8;
  options.offload_activations = true;
  ASSERT_FALSE(options.engine.lock_free);
  const SyntheticRegression dataset(model.InputSize(), 16,
                                    model.OutputSize(), 99);
  const int steps = 12;
  const int layers = model.num_layers();
  const size_t batch = options.batch_size;

  EngineTrainer trainer(&model, options);
  ASSERT_TRUE(trainer.Init().ok());
  auto report = trainer.Train(dataset, steps);
  ASSERT_TRUE(report.ok()) << report.status();

  auto created = core::Engine::Create(options.engine);
  ASSERT_TRUE(created.ok()) << created.status();
  core::Engine& engine = **created;
  // The trainer draws the initial parameters, then the batches, from one
  // generator seeded with options.seed.
  util::Rng rng(options.seed);
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(engine.RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  std::vector<double> losses;
  std::vector<float> x, y;
  for (int step = 0; step < steps; ++step) {
    dataset.GenBatch(&rng, batch, &x, &y);
    ASSERT_TRUE(engine.BeginStep().ok());
    std::vector<float> acts = x;
    for (int l = 0; l < layers; ++l) {
      ASSERT_TRUE(engine.StashActivation(l, acts).ok());
      auto params = engine.UseLayerParams(l);
      ASSERT_TRUE(params.ok()) << params.status();
      std::vector<float> next;
      model.Forward(l, params->data(), acts, batch, &next, nullptr);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    losses.push_back(MseLoss(acts.data(), y.data(), grad.data(), acts.size()));
    std::vector<LayerStash> stash(layers);
    for (int l = layers - 1; l >= 0; --l) {
      auto params = engine.UseLayerParams(l);
      ASSERT_TRUE(params.ok()) << params.status();
      auto boundary = engine.FetchActivation(l);
      ASSERT_TRUE(boundary.ok()) << boundary.status();
      std::vector<float> recomputed, grad_in, grad_params;
      model.Forward(l, params->data(), *boundary, batch, &recomputed,
                    &stash[l]);
      model.Backward(l, params->data(), stash[l], grad, batch, &grad_in,
                     &grad_params);
      ASSERT_TRUE(engine.PushGrads(l, std::move(grad_params)).ok());
      grad = std::move(grad_in);
    }
    ASSERT_TRUE(engine.EndStep().ok());
  }
  EXPECT_EQ(report->losses, losses);

  // Trainer::Validate's batches and flow: the masters, read once per layer.
  util::Rng validation_rng(options.seed ^ 0x5EEDF00Dull);
  std::vector<std::vector<float>> acts(8), targets(8);
  for (int i = 0; i < 8; ++i) {
    dataset.GenBatch(&validation_rng, batch, &acts[i], &targets[i]);
  }
  for (int l = 0; l < layers; ++l) {
    std::vector<float> params;
    ASSERT_TRUE(engine.updater()->ReadMasterParams(l, &params).ok());
    for (std::vector<float>& batch_acts : acts) {
      std::vector<float> next;
      model.Forward(l, params.data(), batch_acts, batch, &next, nullptr);
      batch_acts = std::move(next);
    }
  }
  double total = 0.0;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> grad(acts[i].size());
    total += MseLoss(acts[i].data(), targets[i].data(), grad.data(),
                     acts[i].size());
  }
  EXPECT_EQ(report->validation_loss, total / 8);
}

/// A paged trainer with SSD masters whose SSD tier is `ssd_capacity_bytes`
/// at `ssd_path`, on 4 KiB pages.
EngineTrainerOptions SsdMasterOptions(const std::string& ssd_path,
                                      uint64_t ssd_capacity_bytes) {
  EngineTrainerOptions options = BaseOptions();
  options.engine.memory.page_bytes = 4096;
  options.engine.memory.gpu_capacity_bytes = 64 * 4096;
  options.engine.memory.ssd_path = ssd_path;
  options.engine.memory.ssd_capacity_bytes = ssd_capacity_bytes;
  options.engine.master_device = mem::DeviceKind::kSsd;
  return options;
}

TEST(EngineTrainerTest, InitReturnsTheSsdOpenError) {
  // The tier file cannot be created: Init reports why instead of ending
  // the process.
  const std::string missing_dir = "/tmp/angelptm_missing_dir_" +
                                  std::to_string(::getpid()) + "_none";
  ASSERT_NE(::access(missing_dir.c_str(), F_OK), 0);
  const MlpModel model({{16, 32, 8}});
  EngineTrainer trainer(&model,
                        SsdMasterOptions(missing_dir + "/ssd.bin", 1ull << 20));
  const util::Status status = trainer.Init();
  EXPECT_TRUE(status.IsIoError()) << status;
  EXPECT_NE(status.message().find(missing_dir), std::string::npos) << status;
  EXPECT_EQ(trainer.engine(), nullptr);
}

TEST(EngineTrainerTest, InitRejectsAnSsdTierSmallerThanOnePage) {
  const MlpModel model({{16, 32, 8}});
  EngineTrainer trainer(
      &model, SsdMasterOptions("/tmp/angelptm_tiny_ssd_" +
                                   std::to_string(::getpid()) + ".bin",
                               /*ssd_capacity_bytes=*/1000));
  const util::Status status = trainer.Init();
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("smaller than one frame"),
            std::string::npos)
      << status;
}

TEST(EngineTrainerTest, TrainBeforeInitFails) {
  const MlpModel model({{4, 4}});
  EngineTrainer trainer(&model, BaseOptions());
  SyntheticRegression dataset(4, 8, 4, 99);
  EXPECT_EQ(trainer.Train(dataset, 1).status().code(),
            util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace angelptm::train
