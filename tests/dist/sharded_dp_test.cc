#include "dist/sharded_data_parallel.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "train/kernels.h"
#include "train/mlp.h"
#include "train/transformer.h"
#include "util/fault_injector.h"
#include "util/parallel_for.h"

namespace angelptm::dist {
namespace {

mem::HierarchicalMemoryOptions MemoryOptions() {
  mem::HierarchicalMemoryOptions options;
  options.page_bytes = 16 * 1024;
  options.gpu_capacity_bytes = 4ull << 20;
  options.cpu_capacity_bytes = 128ull << 20;
  return options;
}

ShardedDpOptions DpOptions(int world) {
  ShardedDpOptions options;
  options.world_size = world;
  options.adam.learning_rate = 3e-3;
  options.batch_per_rank = 8;
  options.seed = 11;
  return options;
}

/// A scratch directory, removed with its contents at scope exit.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/aptm-zckpt-XXXXXX";
    EXPECT_NE(::mkdtemp(pattern), nullptr);
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every file in `dir` with its bytes.
std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> contents;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    contents[entry.path().filename().string()] = std::string(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return contents;
}

TEST(ShardedDpTest, FourRanksTrainAndConverge) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  const train::MlpModel model({{16, 64, 64, 4}});
  ShardedDataParallel dp(&allocator, &model, DpOptions(4));
  ASSERT_TRUE(dp.Init().ok());
  train::SyntheticRegression dataset(16, 32, 4, 99);
  auto report = dp.Train(dataset, 150);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->final_train_loss, report->losses.front() / 3);
  EXPECT_LT(report->validation_loss, 0.4);
  EXPECT_GT(report->collectives, 0u);
}

TEST(ShardedDpTest, GatheredParamsMatchShardLayout) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  // 3 doesn't divide the layer sizes: exercises padding.
  const train::MlpModel model({{10, 30, 2}});
  ShardedDataParallel dp(&allocator, &model, DpOptions(3));
  ASSERT_TRUE(dp.Init().ok());
  for (int l = 0; l < model.num_layers(); ++l) {
    auto params = dp.GatherLayerParams(l);
    ASSERT_TRUE(params.ok());
    EXPECT_EQ(params->size(), model.LayerParamCount(l));
  }
  EXPECT_TRUE(dp.GatherLayerParams(9).status().IsInvalidArgument());
}

TEST(ShardedDpTest, MultiRankMatchesSingleRank) {
  // §3.2's transparency-of-scale: with the same global batch, 4-rank
  // ZeRO-sharded training must match single-rank training (same data, same
  // math) up to floating-point summation order.
  train::SyntheticRegression dataset(16, 32, 4, 99);
  std::vector<std::vector<float>> single_params, multi_params;
  double single_loss = 0, multi_loss = 0;
  for (const int world : {1, 4}) {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDpOptions options = DpOptions(world);
    // Keep the global batch constant: world * batch_per_rank = 32.
    options.batch_per_rank = 32 / world;
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, 60);
    ASSERT_TRUE(report.ok());
    auto& params = world == 1 ? single_params : multi_params;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto gathered = dp.GatherLayerParams(l);
      ASSERT_TRUE(gathered.ok());
      params.push_back(*gathered);
    }
    (world == 1 ? single_loss : multi_loss) = report->final_train_loss;
  }
  ASSERT_EQ(single_params.size(), multi_params.size());
  double max_delta = 0;
  for (size_t l = 0; l < single_params.size(); ++l) {
    ASSERT_EQ(single_params[l].size(), multi_params[l].size());
    for (size_t i = 0; i < single_params[l].size(); ++i) {
      max_delta = std::max(
          max_delta,
          double(std::abs(single_params[l][i] - multi_params[l][i])));
    }
  }
  EXPECT_LT(max_delta, 5e-3) << "sharded result diverged from single-rank";
  EXPECT_NEAR(single_loss, multi_loss, 0.02);
}

TEST(ShardedDpTest, WorksWithTransformer) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  train::TransformerConfig config;
  config.seq_len = 4;
  config.d_model = 8;
  config.num_heads = 2;
  config.d_ffn = 16;
  config.num_blocks = 2;
  config.out_dim = 2;
  const train::TinyTransformer model(config);
  train::SyntheticRegression dataset(model.InputSize(), 16,
                                     model.OutputSize(), 99);
  ShardedDpOptions options = DpOptions(2);
  options.batch_per_rank = 8;
  ShardedDataParallel dp(&allocator, &model, options);
  ASSERT_TRUE(dp.Init().ok());
  auto report = dp.Train(dataset, 80);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->final_train_loss, report->losses.front());
}

TEST(ShardedDpTest, GpuStagingMatchesUnstagedResults) {
  // Staging the gathered parameters through per-rank fast-tier arenas
  // (fp32, page-granular) must not change the math — and must actually
  // drive page movement on every rank.
  train::SyntheticRegression dataset(16, 32, 4, 99);
  std::vector<float> unstaged_params, staged_params;
  for (const bool staging : {false, true}) {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDpOptions options = DpOptions(2);
    options.rank_gpu_capacity_bytes = staging ? (2ull << 20) : 0;
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, 40);
    ASSERT_TRUE(report.ok()) << report.status();
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    (staging ? staged_params : unstaged_params) = *params;
  }
  ASSERT_EQ(staged_params.size(), unstaged_params.size());
  for (size_t i = 0; i < staged_params.size(); ++i) {
    EXPECT_EQ(staged_params[i], unstaged_params[i]) << i;  // fp32: exact.
  }
}

TEST(ShardedDpTest, Stage1MatchesStage3) {
  // Stage 1 (optimizer-only sharding) and stage 3 (full sharding) differ
  // in memory and communication, never in math: the same bits.
  train::SyntheticRegression dataset(16, 32, 4, 99);
  std::vector<float> stage1_params, stage3_params;
  uint64_t stage1_bytes = 0, stage3_bytes = 0;
  for (const ZeroStage stage : {ZeroStage::kStage1, ZeroStage::kStage3}) {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDpOptions options = DpOptions(4);
    options.stage = stage;
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    const uint64_t bytes = allocator.allocated_bytes();
    auto report = dp.Train(dataset, 50);
    ASSERT_TRUE(report.ok()) << report.status();
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    if (stage == ZeroStage::kStage1) {
      stage1_params = *params;
      stage1_bytes = bytes;
    } else {
      stage3_params = *params;
      stage3_bytes = bytes;
    }
  }
  ASSERT_EQ(stage1_params.size(), stage3_params.size());
  for (size_t i = 0; i < stage1_params.size(); ++i) {
    EXPECT_EQ(stage1_params[i], stage3_params[i]) << i;
  }
  // Stage 1 keeps a full parameter replica per rank: strictly more memory.
  EXPECT_GT(stage1_bytes, stage3_bytes);
}

TEST(ShardedDpTest, EveryRuleMatchesAPlainVectorReferenceBitwise) {
  // Each rank runs core::ApplyRule on its shard: in place over the shard's
  // pages for a rule that splits bitwise, through whole-shard vectors for
  // the others. The reference is the serial loop: it draws the full global
  // batch with GenBatch, keeps every shard in plain vectors, sums the
  // ranks' losses and gradients in double precision in rank order, divides
  // by the world size, and calls Optimizer::Update once per shard. The
  // product overlaps its collectives with compute on each rank's comm lane
  // and draws only the rank's rows; neither may change a bit, with or
  // without the per-rank staging tier.
  const int steps = 3;
  // Layer 0 has 10,217 parameters: it pads to a multiple of the world, and
  // each shard spans pages and a ragged Adafactor grid.
  const train::MlpModel model({{16, 601, 4}});
  const int num_layers = model.num_layers();
  for (const auto& [world, staging] : {std::pair{2, false}, {4, true}}) {
    for (const char* rule : {"adam", "sgdm", "lamb", "adafactor"}) {
      SCOPED_TRACE(::testing::Message()
                   << rule << ", world " << world << ", staging " << staging);
      ShardedDpOptions options;
      options.world_size = world;
      options.rank_gpu_capacity_bytes = staging ? (2ull << 20) : 0;
      options.optimizer.rule = rule;
      options.optimizer.learning_rate = 3e-3;
      options.optimizer.weight_decay = 0.01;
      options.batch_per_rank = 8;
      options.seed = 11;
      train::SyntheticRegression dataset(16, 32, 4, 99);

      mem::HierarchicalMemory memory(MemoryOptions());
      core::Allocator allocator(&memory);
      ShardedDataParallel dp(&allocator, &model, options);
      ASSERT_TRUE(dp.Init().ok());
      auto report = dp.Train(dataset, steps);
      ASSERT_TRUE(report.ok()) << report.status();

      auto optimizer = core::Optimizer::Create(options.optimizer);
      ASSERT_TRUE(optimizer.ok()) << optimizer.status();
      // Init's draws, then Train's batches, from one stream.
      util::Rng rng(options.seed);
      struct RankShard {
        std::vector<float> p;
        std::vector<std::vector<float>> slots;
      };
      std::vector<std::vector<RankShard>> shards(num_layers);  // [layer][rank]
      std::vector<size_t> shard_counts(num_layers);
      for (int l = 0; l < num_layers; ++l) {
        std::vector<float> full = model.InitLayerParams(l, &rng);
        const size_t count = (full.size() + world - 1) / world;
        full.resize(count * world, 0.0f);
        shard_counts[l] = count;
        for (int r = 0; r < world; ++r) {
          RankShard shard;
          shard.p.assign(full.begin() + r * count,
                         full.begin() + (r + 1) * count);
          for (const core::SlotSpec& spec :
               (*optimizer)->SlotLayout(count)) {
            shard.slots.emplace_back(spec.count, 0.0f);
          }
          shards[l].push_back(std::move(shard));
        }
      }
      const auto full_params = [&](int l) {
        std::vector<float> full;
        for (const RankShard& shard : shards[l]) {
          full.insert(full.end(), shard.p.begin(), shard.p.end());
        }
        full.resize(model.LayerParamCount(l));
        return full;
      };

      const size_t batch = options.batch_per_rank;
      std::vector<double> losses;
      for (int step = 0; step < steps; ++step) {
        std::vector<float> x, y;
        dataset.GenBatch(&rng, batch * world, &x, &y);
        std::vector<std::vector<float>> params(num_layers);
        for (int l = 0; l < num_layers; ++l) params[l] = full_params(l);
        // Every rank's padded parameter gradients, [rank][layer].
        std::vector<std::vector<std::vector<float>>> grads(world);
        double loss_sum = 0.0;
        for (int r = 0; r < world; ++r) {
          const size_t in = batch * model.InputSize();
          const size_t out = batch * model.OutputSize();
          std::vector<float> acts(x.begin() + r * in,
                                  x.begin() + (r + 1) * in);
          std::vector<train::LayerStash> stash(num_layers);
          for (int l = 0; l < num_layers; ++l) {
            std::vector<float> next;
            model.Forward(l, params[l].data(), acts, batch, &next, &stash[l]);
            acts = std::move(next);
          }
          std::vector<float> grad(acts.size());
          loss_sum += float(train::MseLoss(acts.data(), y.data() + r * out,
                                           grad.data(), acts.size()));
          grads[r].resize(num_layers);
          for (int l = num_layers - 1; l >= 0; --l) {
            std::vector<float> grad_in;
            model.Backward(l, params[l].data(), stash[l], grad, batch,
                           &grad_in, &grads[r][l]);
            grad = std::move(grad_in);
            grads[r][l].resize(shard_counts[l] * world, 0.0f);
          }
        }
        losses.push_back(float(loss_sum) / world);
        for (int l = 0; l < num_layers; ++l) {
          const size_t count = shard_counts[l];
          for (int r = 0; r < world; ++r) {
            std::vector<float> g(count);
            for (size_t i = 0; i < count; ++i) {
              double sum = 0.0;
              for (int q = 0; q < world; ++q) {
                sum += grads[q][l][r * count + i];
              }
              g[i] = float(sum) / float(world);
            }
            RankShard& shard = shards[l][r];
            std::vector<core::SlotView> views;
            for (std::vector<float>& slot : shard.slots) {
              views.push_back({slot.data(), slot.size()});
            }
            ASSERT_TRUE((*optimizer)
                            ->Update(shard.p.data(), g.data(), count, views,
                                     step + 1)
                            .ok());
          }
        }
      }
      EXPECT_EQ(report->losses, losses);
      for (int l = 0; l < num_layers; ++l) {
        auto gathered = dp.GatherLayerParams(l);
        ASSERT_TRUE(gathered.ok()) << gathered.status();
        EXPECT_EQ(*gathered, full_params(l)) << "layer " << l;
      }
    }
  }
}

TEST(ShardedDpTest, TrainBeforeInitFails) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  const train::MlpModel model({{4, 4}});
  ShardedDataParallel dp(&allocator, &model, DpOptions(2));
  train::SyntheticRegression dataset(4, 8, 4, 99);
  EXPECT_EQ(dp.Train(dataset, 1).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(ShardedDpTest, InitRejectsBadOptionsAsStatus) {
  // The constructor only records options; every invalid configuration
  // surfaces from Init() as InvalidArgument, never as a crash.
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  const train::MlpModel model({{4, 4}});

  ShardedDataParallel bad_world(&allocator, &model, DpOptions(0));
  EXPECT_TRUE(bad_world.Init().IsInvalidArgument());

  ShardedDpOptions pg = DpOptions(2);
  pg.backend = DpBackend::kProcessGroup;
  pg.rank = 2;  // Outside [0, world).
  pg.rendezvous = "/tmp/aptm-never.sock";
  ShardedDataParallel bad_rank(&allocator, &model, pg);
  EXPECT_TRUE(bad_rank.Init().IsInvalidArgument());

  pg.rank = 0;
  pg.rendezvous.clear();
  ShardedDataParallel no_rendezvous(&allocator, &model, pg);
  EXPECT_TRUE(no_rendezvous.Init().IsInvalidArgument());
}

TEST(ShardedDpTest, SocketBackendMatchesThreadBackendBitwise) {
  // The tentpole property at the ShardedDataParallel level: the same job
  // over the kProcessGroup backend (each rank its own instance, own
  // allocator, real sockets) lands on bit-identical losses and parameters
  // as the kInProcess thread backend. At world 4 the ranks also stage
  // through their fast tiers and write shard checkpoints, whose files must
  // match byte for byte.
  const int steps = 25;
  const std::string rendezvous =
      "/tmp/aptm-sdp-" + std::to_string(::getpid()) + ".sock";
  for (const auto& [world, staging_and_checkpoints] :
       {std::pair{2, false}, {4, true}}) {
    SCOPED_TRACE(::testing::Message() << "world " << world);
    TempDir thread_dir, socket_dir;
    const auto options_for = [&](const std::string& dir) {
      ShardedDpOptions options = DpOptions(world);
      if (staging_and_checkpoints) {
        options.rank_gpu_capacity_bytes = 2ull << 20;
        options.checkpoint_every_n_steps = 4;
        options.checkpoint_dir = dir;
      }
      return options;
    };

    std::vector<double> thread_losses;
    std::vector<std::vector<float>> thread_params;
    {
      mem::HierarchicalMemory memory(MemoryOptions());
      core::Allocator allocator(&memory);
      const train::MlpModel model({{16, 32, 4}});
      train::SyntheticRegression dataset(16, 32, 4, 99);
      ShardedDataParallel dp(&allocator, &model,
                             options_for(thread_dir.path()));
      ASSERT_TRUE(dp.Init().ok());
      auto report = dp.Train(dataset, steps);
      ASSERT_TRUE(report.ok()) << report.status();
      thread_losses = report->losses;
      for (int l = 0; l < model.num_layers(); ++l) {
        auto params = dp.GatherLayerParams(l);
        ASSERT_TRUE(params.ok());
        thread_params.push_back(*params);
      }
    }

    std::vector<double> socket_losses;
    std::vector<std::vector<float>> socket_params;
    {
      std::vector<util::Status> statuses(world, util::Status::OK());
      std::vector<std::thread> ranks;
      for (int r = 0; r < world; ++r) {
        ranks.emplace_back([&, r] {
          // Each "process": private memory, allocator, and model instance.
          mem::HierarchicalMemory memory(MemoryOptions());
          core::Allocator allocator(&memory);
          const train::MlpModel model({{16, 32, 4}});
          train::SyntheticRegression dataset(16, 32, 4, 99);
          ShardedDpOptions options = options_for(socket_dir.path());
          options.backend = DpBackend::kProcessGroup;
          options.rank = r;
          options.rendezvous = rendezvous;
          ShardedDataParallel dp(&allocator, &model, options);
          statuses[r] = dp.Init();
          if (!statuses[r].ok()) return;
          auto report = dp.Train(dataset, steps);
          if (!report.ok()) {
            statuses[r] = report.status();
            return;
          }
          // GatherLayerParams is a collective here: every rank calls it
          // for every layer, rank 0 records.
          for (int l = 0; l < model.num_layers(); ++l) {
            auto params = dp.GatherLayerParams(l);
            if (!params.ok()) {
              statuses[r] = params.status();
              return;
            }
            if (r == 0) socket_params.push_back(*params);
          }
          if (r == 0) socket_losses = report->losses;
        });
      }
      for (auto& t : ranks) t.join();
      for (const auto& status : statuses) ASSERT_TRUE(status.ok()) << status;
    }

    ASSERT_EQ(socket_losses.size(), thread_losses.size());
    for (size_t s = 0; s < thread_losses.size(); ++s) {
      EXPECT_EQ(socket_losses[s], thread_losses[s]) << "step " << s;
    }
    ASSERT_EQ(socket_params.size(), thread_params.size());
    for (size_t l = 0; l < thread_params.size(); ++l) {
      ASSERT_EQ(socket_params[l].size(), thread_params[l].size());
      for (size_t i = 0; i < thread_params[l].size(); ++i) {
        ASSERT_EQ(socket_params[l][i], thread_params[l][i])
            << "layer " << l << " element " << i;
      }
    }
    if (staging_and_checkpoints) {
      const auto files = DirContents(thread_dir.path());
      EXPECT_EQ(files.size(), size_t(3 * world));  // Steps 16, 20, 24.
      EXPECT_EQ(DirContents(socket_dir.path()), files);
    }
  }
}

TEST(ShardedDpTest, CheckpointResumeStaysOnTrajectory) {
  // A job that trains 10 steps straight and a job that trains 4 steps,
  // "dies", and resumes from its shard checkpoints must end on identical
  // parameters — the data stream replays from the seed and the shard
  // states carry the optimizer forward.
  char pattern[] = "/tmp/aptm-res-XXXXXX";
  ASSERT_NE(::mkdtemp(pattern), nullptr);
  const std::string ckpt_dir = pattern;
  train::SyntheticRegression dataset(16, 32, 4, 99);
  const int steps = 10;

  std::vector<float> straight_params;
  {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDataParallel dp(&allocator, &model, DpOptions(2));
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, steps);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->resumed_step, 0);
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    straight_params = *params;
  }

  ShardedDpOptions options = DpOptions(2);
  options.checkpoint_every_n_steps = 2;
  options.checkpoint_dir = ckpt_dir;
  {
    // First incarnation: 4 steps, shard files at steps 2 and 4.
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    ASSERT_TRUE(dp.Train(dataset, 4).ok());
  }
  {
    // Restarted incarnation: resumes at step 4, finishes the job.
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, steps);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->resumed_step, 4);
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    ASSERT_EQ(params->size(), straight_params.size());
    for (size_t i = 0; i < straight_params.size(); ++i) {
      ASSERT_EQ((*params)[i], straight_params[i]) << i;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
}

/// Options of a job that checkpoints into `dir` every 2 steps.
ShardedDpOptions CheckpointingOptions(int world, const std::string& dir) {
  ShardedDpOptions options = DpOptions(world);
  options.checkpoint_every_n_steps = 2;
  options.checkpoint_dir = dir;
  return options;
}

/// One incarnation of a job: its own memory, allocator, model and data.
struct Job {
  explicit Job(const ShardedDpOptions& options,
               std::vector<size_t> dims = {16, 32, 4})
      : memory(MemoryOptions()),
        allocator(&memory),
        model({std::move(dims)}),
        dataset(16, 32, 4, 99),
        dp(&allocator, &model, options) {}

  /// Every layer's full parameters.
  std::vector<std::vector<float>> Params() {
    std::vector<std::vector<float>> params;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto gathered = dp.GatherLayerParams(l);
      EXPECT_TRUE(gathered.ok()) << gathered.status();
      params.push_back(gathered.ok() ? *gathered : std::vector<float>());
    }
    return params;
  }

  mem::HierarchicalMemory memory;
  core::Allocator allocator;
  train::MlpModel model;
  train::SyntheticRegression dataset;
  ShardedDataParallel dp;
};

core::CheckpointFiles RankFiles(const std::string& dir, int world, int rank) {
  return {dir, ShardCheckpointStem(world, rank)};
}

TEST(ShardedDpTest, ShardFilesAreV3CheckpointsOfEachRanksSlice) {
  // Each rank's file is an ordinary v3 checkpoint that the trainer's parse
  // step reads: the completed step, the rule, and the rank's slice of
  // every layer with the rule's named slots. Together the ranks' slices
  // are the full parameters, so no rank's file holds another's.
  TempDir dir;
  Job job(CheckpointingOptions(2, dir.path()));
  ASSERT_TRUE(job.dp.Init().ok());
  ASSERT_TRUE(job.dp.Train(job.dataset, 4).ok());
  const std::vector<std::vector<float>> params = job.Params();

  std::vector<std::vector<float>> joined(params.size());
  for (int r = 0; r < 2; ++r) {
    const core::CheckpointFiles files = RankFiles(dir.path(), 2, r);
    EXPECT_EQ(files.Steps(), (std::vector<int64_t>{2, 4}));
    auto file = core::ParseCheckpoint(files.PathForStep(4));
    ASSERT_TRUE(file.ok()) << file.status();
    EXPECT_EQ(file->progress.global_step, 4);
    EXPECT_EQ(file->rule, "adam");
    ASSERT_EQ(file->layers.size(), params.size());
    for (size_t l = 0; l < params.size(); ++l) {
      const core::LockFreeUpdater::LayerState& layer = file->layers[l];
      const size_t shard_count = (params[l].size() + 1) / 2;
      EXPECT_EQ(layer.step, 4);
      ASSERT_EQ(layer.params.size(), shard_count) << "layer " << l;
      ASSERT_EQ(layer.slots.size(), 2u) << "layer " << l;
      EXPECT_EQ(layer.slots[0].name, "m");
      EXPECT_EQ(layer.slots[1].name, "v");
      for (const auto& slot : layer.slots) {
        EXPECT_EQ(slot.values.size(), shard_count) << "layer " << l;
      }
      joined[l].insert(joined[l].end(), layer.params.begin(),
                       layer.params.end());
    }
  }
  for (size_t l = 0; l < params.size(); ++l) {
    joined[l].resize(params[l].size());
    EXPECT_EQ(joined[l], params[l]) << "layer " << l;
  }
}

TEST(ShardedDpTest, RotationKeepsEachRanksNewestFiles) {
  // The directory does not exist yet: a fresh start that creates it. Each
  // rank rotates only its own files; keep_last < 1 keeps all of them.
  for (const int keep_last : {2, 0}) {
    SCOPED_TRACE(keep_last);
    TempDir scratch;
    const std::string dir = scratch.path() + "/not/yet";
    ShardedDpOptions options = CheckpointingOptions(2, dir);
    options.checkpoint_keep_last = keep_last;
    Job job(options);
    ASSERT_TRUE(job.dp.Init().ok());
    auto report = job.dp.Train(job.dataset, 8);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->resumed_step, 0);
    const std::vector<int64_t> kept =
        keep_last == 2 ? std::vector<int64_t>{6, 8}
                       : std::vector<int64_t>{2, 4, 6, 8};
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(RankFiles(dir, 2, r).Steps(), kept) << "rank " << r;
    }
    EXPECT_EQ(DirContents(dir).size(), 2 * kept.size());
  }
}

/// Saves at `saved_world`, then resumes in the same directory at
/// `resumed_world`. The world size is in every file name, so the restarted
/// job finds none of its own files; it must refuse rather than start over,
/// loading nothing and writing or deleting nothing.
void ExpectResumeAtAnotherWorldFails(int saved_world, int resumed_world) {
  TempDir dir;
  {
    Job job(CheckpointingOptions(saved_world, dir.path()));
    ASSERT_TRUE(job.dp.Init().ok());
    ASSERT_TRUE(job.dp.Train(job.dataset, 4).ok());
  }
  const auto saved = DirContents(dir.path());
  ASSERT_EQ(saved.size(), size_t(2 * saved_world));

  Job job(CheckpointingOptions(resumed_world, dir.path()));
  ASSERT_TRUE(job.dp.Init().ok());
  const auto initial = job.Params();
  auto report = job.dp.Train(job.dataset, 4);
  EXPECT_TRUE(report.status().IsInvalidArgument()) << report.status();
  EXPECT_EQ(job.Params(), initial);
  EXPECT_EQ(DirContents(dir.path()), saved);
}

TEST(ShardedDpTest, ResumeAtALargerWorldFailsAndTouchesNothing) {
  ExpectResumeAtAnotherWorldFails(2, 4);
}

TEST(ShardedDpTest, ResumeAtASmallerWorldFailsAndTouchesNothing) {
  ExpectResumeAtAnotherWorldFails(4, 2);
}

TEST(ShardedDpTest, ResumeChecksTheFilesBeforeWritingAnyShard) {
  // A file of another rule, layer count, layer shape or step fails the
  // resume before any shard is written.
  TempDir dir;
  {
    Job job(CheckpointingOptions(2, dir.path()));
    ASSERT_TRUE(job.dp.Init().ok());
    ASSERT_TRUE(job.dp.Train(job.dataset, 4).ok());
  }
  const auto expect_refused = [](const ShardedDpOptions& options,
                                 std::vector<size_t> dims,
                                 const std::string& expect) {
    SCOPED_TRACE(expect);
    Job job(options, std::move(dims));
    ASSERT_TRUE(job.dp.Init().ok());
    const auto initial = job.Params();
    auto report = job.dp.Train(job.dataset, 6);
    ASSERT_TRUE(report.status().IsInvalidArgument()) << report.status();
    EXPECT_NE(report.status().message().find(expect), std::string::npos)
        << report.status();
    EXPECT_EQ(job.Params(), initial);
  };
  const ShardedDpOptions options = CheckpointingOptions(2, dir.path());
  ShardedDpOptions sgdm = options;
  sgdm.optimizer.rule = "sgdm";
  expect_refused(sgdm, {16, 32, 4}, "optimizer rule 'adam'");
  expect_refused(options, {16, 32, 32, 4}, "2 layers");
  expect_refused(options, {16, 24, 4}, "layer 0");
  // Step-4 files under step-6 names.
  for (int r = 0; r < 2; ++r) {
    const core::CheckpointFiles files = RankFiles(dir.path(), 2, r);
    std::filesystem::rename(files.PathForStep(4), files.PathForStep(6));
  }
  expect_refused(options, {16, 32, 4}, "holds step 4");
}

TEST(ShardedDpTest, CorruptOrTruncatedShardFileFailsTheResume) {
  // A damaged file at the agreed step fails the resume loudly, naming the
  // file, and leaves every shard as Init made it.
  for (const bool truncate : {false, true}) {
    SCOPED_TRACE(truncate ? "truncated" : "corrupt");
    TempDir dir;
    {
      Job job(CheckpointingOptions(2, dir.path()));
      ASSERT_TRUE(job.dp.Init().ok());
      ASSERT_TRUE(job.dp.Train(job.dataset, 4).ok());
    }
    const std::string path = RankFiles(dir.path(), 2, 1).PathForStep(4);
    if (truncate) {
      std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
    } else {
      std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
      char byte = 0;
      file.seekg(200);
      file.read(&byte, 1);
      byte = char(byte ^ 0x40);
      file.seekp(200);
      file.write(&byte, 1);
    }
    Job job(CheckpointingOptions(2, dir.path()));
    ASSERT_TRUE(job.dp.Init().ok());
    const auto initial = job.Params();
    auto report = job.dp.Train(job.dataset, 6);
    ASSERT_TRUE(report.status().IsIoError()) << report.status();
    EXPECT_NE(report.status().message().find(path), std::string::npos)
        << report.status();
    if (!truncate) {
      EXPECT_NE(report.status().message().find("checksum"), std::string::npos)
          << report.status();
    }
    EXPECT_EQ(job.Params(), initial);
  }
}

/// Threads of this process.
size_t ThreadCount() {
  size_t threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

/// Waits up to 5 s for this process to be back at `threads` threads: an
/// exited thread leaves /proc/self/task just after its joiner wakes.
size_t ThreadCountSettlingAt(size_t threads) {
  size_t now = ThreadCount();
  for (int i = 0; i < 500 && now != threads; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = ThreadCount();
  }
  return now;
}

/// One Train() call's outcome.
struct TrainOutcome {
  util::Status status;
  int resumed_step = -1;
};

/// Trains a 2-rank job that saves its shards every 2 steps into `dir`:
/// one in-process job, or one socket rank per thread. Returns each
/// Train()'s outcome (one for the in-process job, one per socket rank).
std::vector<TrainOutcome> TrainCheckpointingJob(const std::string& dir,
                                                int steps, bool sockets) {
  const int world = 2;
  const auto run = [&](const ShardedDpOptions& options) {
    Job job(options);
    TrainOutcome outcome;
    outcome.status = job.dp.Init();
    if (!outcome.status.ok()) return outcome;
    auto report = job.dp.Train(job.dataset, steps);
    outcome.status = report.status();
    if (report.ok()) outcome.resumed_step = report->resumed_step;
    return outcome;
  };
  if (!sockets) return {run(CheckpointingOptions(world, dir))};
  std::vector<TrainOutcome> outcomes(world);
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      ShardedDpOptions options = CheckpointingOptions(world, dir);
      options.backend = DpBackend::kProcessGroup;
      options.rank = r;
      options.rendezvous =
          "/tmp/aptm-sdpc-" + std::to_string(::getpid()) + ".sock";
      outcomes[r] = run(options);
    });
  }
  for (auto& t : ranks) t.join();
  return outcomes;
}

TEST(ShardedDpTest, FailedShardSaveLeavesTheLastCommonStep) {
  // A write or rename fault on one rank's step-4 save fails the job and
  // leaves no partial file: that rank still holds step 2, so the restart
  // agrees on step 2 and resumes from it. When step 4 is the last step,
  // the other rank has no collective left. When it is a middle step, the
  // other rank goes on into step 5's collectives, which the failure must
  // end, in process or over sockets. Every Train() returns with the
  // failing rank's fault or peer loss, and no thread outlives it.
  auto& injector = util::FaultInjector::Instance();
  (void)util::ComputePool();  // Its workers exist before the count.
  const size_t threads_before = ThreadCount();
  for (const bool sockets : {false, true}) {
    for (const int steps : {4, 6}) {
      for (const char* site : {"checkpoint.write", "checkpoint.rename"}) {
        SCOPED_TRACE(::testing::Message()
                     << site << ", " << steps << " steps, "
                     << (sockets ? "sockets" : "in process"));
        injector.Reset();
        TempDir dir;
        util::FaultRule rule;
        rule.nth_call = 3;  // The first of the two step-4 saves.
        injector.Arm(site, rule);
        const std::vector<TrainOutcome> failed =
            TrainCheckpointingJob(dir.path(), steps, sockets);
        injector.Reset();
        int faulted = 0;
        for (const TrainOutcome& outcome : failed) {
          ASSERT_FALSE(outcome.status.ok());
          if (outcome.status.message().find(site) != std::string::npos) {
            ++faulted;
          } else {
            EXPECT_TRUE(ProcessGroup::IsPeerLoss(outcome.status))
                << outcome.status;
          }
        }
        EXPECT_EQ(faulted, 1);

        size_t step4_files = 0;
        for (int r = 0; r < 2; ++r) {
          const std::vector<int64_t> saved =
              RankFiles(dir.path(), 2, r).Steps();
          ASSERT_FALSE(saved.empty());
          EXPECT_EQ(saved.front(), 2);
          EXPECT_LE(saved.back(), 4);
          step4_files += saved.back() == 4 ? 1 : 0;
        }
        EXPECT_EQ(step4_files, 1u);
        for (const auto& [name, bytes] : DirContents(dir.path())) {
          EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
        }

        for (const TrainOutcome& resumed :
             TrainCheckpointingJob(dir.path(), steps, sockets)) {
          ASSERT_TRUE(resumed.status.ok()) << resumed.status;
          EXPECT_EQ(resumed.resumed_step, 2);
        }
      }
    }
  }
  EXPECT_EQ(ThreadCountSettlingAt(threads_before), threads_before);
}

TEST(ShardedDpTest, SocketRankFailingMidStepFailsEveryRankAndJoinsItsLane) {
  // One socket rank's frame fails after its header has crossed, in the
  // middle of a step's reduce-scatters. That rank's Train() returns the
  // injected error, and its sockets close as the rank goes. Every other
  // rank's Train() then fails with peer loss well before the 120 s
  // collective deadline, and no comm lane outlives its Train().
  const int world = 4;
  const int steps = 6;
  const std::vector<size_t> dims = {16, 32, 32, 32, 4};  // 4 layers.
  const std::string rendezvous =
      "/tmp/aptm-sdpf-" + std::to_string(::getpid()) + ".sock";
  (void)util::ComputePool();  // Its workers exist before the count.
  const size_t threads_before = ThreadCount();

  // A collective sends 2 * (world - 1) frames with a payload: a
  // contribution from every peer, then a result to every peer. Its frames
  // interleave only with those of the collectives next to it, so frame
  // 6k + 3 of the training frames belongs to collective k - 1, k or k + 1.
  // Collective 9 * 2 + 6 is step 2's reduce-scatter of layer 2, between
  // those of layers 3 and 1. The 3 rendezvous hellos come first.
  util::FaultInjector& faults = util::FaultInjector::Instance();
  util::FaultRule rule;
  rule.nth_call = 3 + 6 * (9 * 2 + 6) + 3;
  faults.Arm("wire.send_payload", rule);
  std::vector<util::Status> statuses(world);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      ShardedDpOptions options = DpOptions(world);
      options.backend = DpBackend::kProcessGroup;
      options.rank = r;
      options.rendezvous = rendezvous;
      Job job(options, dims);
      statuses[r] = job.dp.Init();
      if (statuses[r].ok()) {
        statuses[r] = job.dp.Train(job.dataset, steps).status();
      }
    });
  }
  for (auto& t : ranks) t.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const uint64_t fires = faults.fires("wire.send_payload");
  faults.Reset();

  EXPECT_EQ(fires, 1u);
  EXPECT_LT(seconds, 60.0);
  int failed = 0;
  for (int r = 0; r < world; ++r) {
    SCOPED_TRACE(::testing::Message() << "rank " << r);
    ASSERT_FALSE(statuses[r].ok());
    if (statuses[r].message().find("wire.send_payload") !=
        std::string::npos) {
      ++failed;
    } else {
      EXPECT_TRUE(ProcessGroup::IsPeerLoss(statuses[r])) << statuses[r];
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(ThreadCountSettlingAt(threads_before), threads_before);
}

}  // namespace
}  // namespace angelptm::dist
