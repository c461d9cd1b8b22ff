// zero3_sockets: ZeRO stage 3. ShardedDataParallel on the kProcessGroup
// backend, four ranks hosted as threads of this process (three socket
// connections to the rank-0 hub), per-rank fast-tier staging on, an MLP
// model, and a 1-thread compute pool. Socket collectives and staging take
// about half of each step and per-rank compute the other half; the engine,
// updater, SSD, attention and fp16 paths are bypassed.
#include <algorithm>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/allocator.h"
#include "core/optimizer/optimizer.h"
#include "dist/process_group.h"
#include "dist/sharded_data_parallel.h"
#include "mem/hierarchical_memory.h"
#include "train/kernels.h"
#include "train/mlp.h"

namespace angelptm::perfbench {
namespace {

constexpr int kWorld = 4;
/// Large enough that per-rank compute is about half a step: at 8 samples
/// the step was nearly all socket wake-ups, whose latency drifts with the
/// host's load far more than compute does.
constexpr size_t kBatchPerRank = 128;
/// ShardedDataParallel stages through 64 KiB pages; the shard tier uses
/// the same size.
constexpr size_t kPageBytes = 64 * 1024;
constexpr size_t kTeacherHidden = 64;
/// Hub collective deadline for the replay's own process groups.
constexpr int kCollectiveTimeoutMs = 30000;
/// ShardedDataParallel::Train validates on this many fixed batches.
constexpr int kValidationBatches = 4;
/// Set-ups per rep; the rep's setup_s is their median.
constexpr int kSetupRepeats = 5;

const std::vector<size_t>& Dims() {
  static const std::vector<size_t> dims = {512, 1024, 1024, 1024, 64};
  return dims;
}

int TimedSteps(const RunConfig& config) { return config.smoke ? 3 : 15; }

/// Collectives one step issues: an all-gather and a reduce-scatter per
/// layer plus the loss all-reduce.
uint64_t CollectivesPerStep(const train::LayeredModel& model) {
  return 2 * uint64_t(model.num_layers()) + 1;
}

size_t PaddedCount(size_t count) {
  return (count + kWorld - 1) / kWorld * kWorld;
}

/// Each rank's shard tier holds its fp32 parameter shard and the Adam m, v
/// shards, plus a quarter for page-packing holes.
mem::HierarchicalMemoryOptions ShardMemoryOptions(
    const train::LayeredModel& model) {
  uint64_t bytes = 0;
  for (int l = 0; l < model.num_layers(); ++l) {
    const uint64_t shard = PaddedCount(model.LayerParamCount(l)) / kWorld;
    bytes += 3 * PageRound(4 * shard, kPageBytes);
  }
  mem::HierarchicalMemoryOptions options;
  options.page_bytes = kPageBytes;
  options.cpu_capacity_bytes = PageRound(bytes + bytes / 4, kPageBytes);
  return options;
}

/// Every layer's gathered fp32 parameters are staged at once, so the
/// per-rank fast tier fits all of them, one spare page per layer.
uint64_t RankStagingBytes(const train::LayeredModel& model) {
  uint64_t bytes = 0;
  for (int l = 0; l < model.num_layers(); ++l) {
    bytes += PageRound(4 * model.LayerParamCount(l), kPageBytes) + kPageBytes;
  }
  return bytes;
}

dist::ShardedDpOptions DpOptions(const train::LayeredModel& model,
                                 const RunConfig& config, int rank,
                                 const std::string& rendezvous) {
  dist::ShardedDpOptions options;
  options.stage = dist::ZeroStage::kStage3;
  options.world_size = kWorld;
  options.backend = dist::DpBackend::kProcessGroup;
  options.rank = rank;
  options.rendezvous = rendezvous;
  options.rank_gpu_capacity_bytes = RankStagingBytes(model);
  options.batch_per_rank = kBatchPerRank;
  options.seed = config.seed;
  return options;
}

/// One rank of the product run.
struct Rank {
  std::unique_ptr<mem::HierarchicalMemory> memory;
  std::unique_ptr<core::Allocator> allocator;
  std::unique_ptr<dist::ShardedDataParallel> dp;
  util::Status status;
  dist::DpReport report;
};

/// Runs `fn(rank_index, rank)` on one thread per rank and returns the wall
/// time until the last one finished. A rank that fails closes its sockets
/// at once, so its peers fail fast with a peer-loss error instead of
/// waiting out the collective deadline.
template <typename Fn>
double OnRankThreads(std::vector<Rank>* ranks, Fn fn) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&fn, r, rank = &(*ranks)[r]] {
      fn(r, rank);
      if (!rank->status.ok()) rank->dp.reset();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return SecondsSince(start);
}

util::Status FirstFailure(const std::vector<Rank>& ranks) {
  for (int r = 0; r < kWorld; ++r) {
    if (!ranks[r].status.ok()) {
      return util::Status(ranks[r].status.code(),
                          "rank " + std::to_string(r) + ": " +
                              ranks[r].status.message());
    }
  }
  return util::Status::OK();
}

/// The update rule ShardedDataParallel resolves from its default options.
core::OptimizerConfig DpOptimizer() {
  const dist::ShardedDpOptions defaults;
  return core::ResolveLegacyAdam(defaults.optimizer, defaults.adam);
}

/// One rank of the replay: ShardedDataParallel::RankLoop, call for call,
/// over its own ProcessGroup, shard tier and staging tier.
struct ReplayRank {
  PhaseClock clock;
  std::vector<double> losses;
  double valid_loss = 0;
  uint64_t bytes_sent = 0;
  uint64_t gpu_peak_bytes = 0;
  /// Wall time of what the product's Train() covers: batch generation, the
  /// step loop and the validation pass.
  double train_s = 0;
  util::Status status;
};

util::Status Replay(const train::MlpModel& model,
                    const train::SyntheticRegression& dataset,
                    const RunConfig& config, int rank, int steps,
                    ReplayRank* out) {
  dist::ProcessGroupOptions pg_options;
  pg_options.rank = rank;
  pg_options.world_size = kWorld;
  pg_options.rendezvous = config.scratch + "/rdv-replay.sock";
  pg_options.io_timeout_ms = kCollectiveTimeoutMs;
  ANGEL_ASSIGN_OR_RETURN(std::unique_ptr<dist::ProcessGroup> group,
                         dist::ProcessGroup::Connect(pg_options));
  ANGEL_ASSIGN_OR_RETURN(std::unique_ptr<core::Optimizer> optimizer,
                         core::Optimizer::Create(DpOptimizer()));
  mem::HierarchicalMemoryOptions staging_options;
  staging_options.page_bytes = kPageBytes;
  staging_options.gpu_capacity_bytes = RankStagingBytes(model);
  staging_options.cpu_capacity_bytes = RankStagingBytes(model);
  mem::HierarchicalMemory staging(staging_options);
  core::Allocator staging_allocator(&staging);
  mem::HierarchicalMemory shard_memory(ShardMemoryOptions(model));
  core::Allocator shard_allocator(&shard_memory);

  // Page-backed shards and slots, laid out and initialized exactly as
  // ShardedDataParallel::Init does.
  struct Layer {
    size_t full = 0, padded = 0, shard = 0;
    core::Tensor* p32 = nullptr;
    std::vector<core::Tensor*> slots;
  };
  const int num_layers = model.num_layers();
  util::Rng rng(config.seed);
  std::vector<Layer> layers(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    Layer& layer = layers[l];
    std::vector<float> full = model.InitLayerParams(l, &rng);
    layer.full = full.size();
    layer.padded = PaddedCount(layer.full);
    layer.shard = layer.padded / kWorld;
    full.resize(layer.padded, 0.0f);
    const uint64_t group = uint64_t(l) * 64 + rank;
    ANGEL_ASSIGN_OR_RETURN(
        layer.p32, shard_allocator.Allocate({layer.shard}, core::DType::kFp32,
                                            mem::DeviceKind::kCpu, group));
    ANGEL_RETURN_IF_ERROR(layer.p32->WriteFloats(std::vector<float>(
        full.begin() + rank * layer.shard,
        full.begin() + (rank + 1) * layer.shard)));
    for (const core::SlotSpec& spec : optimizer->SlotLayout(layer.shard)) {
      ANGEL_ASSIGN_OR_RETURN(
          core::Tensor * slot,
          shard_allocator.Allocate({spec.count}, spec.dtype,
                                   mem::DeviceKind::kCpu, group));
      ANGEL_RETURN_IF_ERROR(
          slot->WriteFloats(std::vector<float>(spec.count, 0.0f)));
      layer.slots.push_back(slot);
    }
  }

  ANGEL_RETURN_IF_ERROR(group->Barrier());
  const auto train_start = std::chrono::steady_clock::now();
  const size_t global_batch = kBatchPerRank * kWorld;
  std::vector<std::vector<float>> xs(steps), ys(steps);
  for (int s = 0; s < steps; ++s) {
    dataset.GenBatch(&rng, global_batch, &xs[s], &ys[s]);
  }
  const uint64_t bytes_before = group->GetStats().bytes_sent;
  PhaseClock& clock = out->clock;
  const size_t x_per_rank = kBatchPerRank * model.InputSize();
  const size_t y_per_rank = kBatchPerRank * model.OutputSize();
  for (int s = 0; s < steps; ++s) {
    Timed step_timed(&clock, Phase::kStep);
    const std::vector<float> x(xs[s].begin() + rank * x_per_rank,
                               xs[s].begin() + (rank + 1) * x_per_rank);
    const std::vector<float> y(ys[s].begin() + rank * y_per_rank,
                               ys[s].begin() + (rank + 1) * y_per_rank);
    std::vector<std::vector<float>> params(num_layers);
    for (int l = 0; l < num_layers; ++l) {
      std::vector<float> my_shard;
      {
        Timed timed(&clock, Phase::kShardIo);
        ANGEL_RETURN_IF_ERROR(layers[l].p32->ReadFloats(&my_shard));
      }
      Timed timed(&clock, Phase::kAllGather);
      params[l].resize(layers[l].padded);
      ANGEL_RETURN_IF_ERROR(group->AllGather(my_shard.data(), layers[l].shard,
                                             params[l].data()));
      params[l].resize(layers[l].full);
    }
    std::vector<core::Tensor*> staged(num_layers, nullptr);
    for (int l = 0; l < num_layers; ++l) {
      Timed timed(&clock, Phase::kStage);
      auto tensor = staging_allocator.Allocate(
          {params[l].size()}, core::DType::kFp32, mem::DeviceKind::kCpu);
      if (!tensor.ok()) continue;
      staged[l] = *tensor;
      ANGEL_RETURN_IF_ERROR(staged[l]->WriteFloats(params[l]));
      const util::Status moved =
          staging_allocator.Move(staged[l], mem::DeviceKind::kGpu);
      if (!moved.ok() && !moved.IsResourceExhausted()) return moved;
      ANGEL_RETURN_IF_ERROR(staged[l]->ReadFloats(&params[l]));
    }

    std::vector<train::LayerStash> stash(num_layers);
    std::vector<float> acts = x;
    for (int l = 0; l < num_layers; ++l) {
      Timed timed(&clock, Phase::kForward);
      std::vector<float> next;
      model.Forward(l, params[l].data(), acts, kBatchPerRank, &next,
                    &stash[l]);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    float loss_value = 0.0f;
    {
      Timed timed(&clock, Phase::kForward);
      loss_value = float(
          train::MseLoss(acts.data(), y.data(), grad.data(), acts.size()));
    }
    {
      Timed timed(&clock, Phase::kAllReduce);
      ANGEL_RETURN_IF_ERROR(group->AllReduce(&loss_value, 1));
    }
    out->losses.push_back(loss_value / kWorld);

    for (int l = num_layers - 1; l >= 0; --l) {
      Layer& layer = layers[l];
      std::vector<float> grad_in, grad_params;
      {
        Timed timed(&clock, Phase::kBackward);
        model.Backward(l, params[l].data(), stash[l], grad, kBatchPerRank,
                       &grad_in, &grad_params);
      }
      grad = std::move(grad_in);
      grad_params.resize(layer.padded, 0.0f);
      std::vector<float> shard_grad(layer.shard);
      {
        Timed timed(&clock, Phase::kReduceScatter);
        ANGEL_RETURN_IF_ERROR(group->ReduceScatter(
            grad_params.data(), layer.padded, shard_grad.data()));
      }
      std::vector<float> p;
      std::vector<std::vector<float>> slot_values(layer.slots.size());
      std::vector<core::SlotView> views(layer.slots.size());
      {
        Timed timed(&clock, Phase::kShardIo);
        ANGEL_RETURN_IF_ERROR(layer.p32->ReadFloats(&p));
        for (size_t k = 0; k < layer.slots.size(); ++k) {
          ANGEL_RETURN_IF_ERROR(layer.slots[k]->ReadFloats(&slot_values[k]));
          views[k] = {slot_values[k].data(), slot_values[k].size()};
        }
      }
      {
        Timed timed(&clock, Phase::kShardUpdate);
        for (float& g : shard_grad) g /= float(kWorld);
        ANGEL_RETURN_IF_ERROR(optimizer->Update(
            p.data(), shard_grad.data(), layer.shard, views, s + 1));
      }
      {
        Timed timed(&clock, Phase::kShardIo);
        ANGEL_RETURN_IF_ERROR(layer.p32->WriteFloats(p));
        for (size_t k = 0; k < layer.slots.size(); ++k) {
          ANGEL_RETURN_IF_ERROR(layer.slots[k]->WriteFloats(slot_values[k]));
        }
      }
      if (staged[l] != nullptr) {
        Timed timed(&clock, Phase::kStage);
        ANGEL_RETURN_IF_ERROR(staging_allocator.Release(staged[l]));
      }
    }
  }
  out->bytes_sent = group->GetStats().bytes_sent - bytes_before;

  // Train()'s validation: the full parameters gathered from the shards,
  // forward on fixed batches of the global batch size.
  std::vector<std::vector<float>> params(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    std::vector<float> my_shard;
    ANGEL_RETURN_IF_ERROR(layers[l].p32->ReadFloats(&my_shard));
    params[l].resize(layers[l].padded);
    ANGEL_RETURN_IF_ERROR(group->AllGather(my_shard.data(), layers[l].shard,
                                           params[l].data()));
    params[l].resize(layers[l].full);
  }
  util::Rng validation_rng(config.seed ^ 0x5EEDF00Dull);
  double total = 0.0;
  for (int i = 0; i < kValidationBatches; ++i) {
    std::vector<float> acts, y;
    dataset.GenBatch(&validation_rng, global_batch, &acts, &y);
    for (int l = 0; l < num_layers; ++l) {
      std::vector<float> next;
      model.Forward(l, params[l].data(), acts, global_batch, &next, nullptr);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    total += train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  }
  out->valid_loss = total / kValidationBatches;
  out->train_s = SecondsSince(train_start);
  out->gpu_peak_bytes = PeakBytes(staging.gpu_arena());
  return util::Status::OK();
}

}  // namespace

util::Status Zero3Rep(const RunConfig& config, int rep, Rep* out,
                      Checks* checks) {
  const train::MlpModel model({Dims()});
  const train::SyntheticRegression dataset(
      model.InputSize(), kTeacherHidden, model.OutputSize(), config.seed);
  const int steps = TimedSteps(config);
  out->steps = steps;

  // Set-up (construction, arena allocation, the socket rendezvous and
  // Init) takes about 0.1 s, so the rep sets up several times, each on a
  // fresh rendezvous, and keeps the median; the last set-up trains.
  std::vector<Rank> ranks;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ranks.clear();  // The previous set-up goes first.
    ranks.resize(kWorld);
    const std::string rendezvous = config.scratch + "/rdv-" +
                                   std::to_string(rep) + "-" +
                                   std::to_string(i) + ".sock";
    setup_s.push_back(OnRankThreads(&ranks, [&](int r, Rank* rank) {
      rank->memory =
          std::make_unique<mem::HierarchicalMemory>(ShardMemoryOptions(model));
      rank->allocator = std::make_unique<core::Allocator>(rank->memory.get());
      rank->dp = std::make_unique<dist::ShardedDataParallel>(
          rank->allocator.get(), &model,
          DpOptions(model, config, r, rendezvous));
      rank->status = rank->dp->Init();
    }));
    ANGEL_RETURN_IF_ERROR(FirstFailure(ranks));
  }
  out->setup_s = Median(setup_s);

  out->train_s = OnRankThreads(&ranks, [&](int, Rank* rank) {
    util::Result<dist::DpReport> report = rank->dp->Train(dataset, steps);
    rank->status = report.status();
    if (report.ok()) rank->report = std::move(report).value();
  });
  ANGEL_RETURN_IF_ERROR(FirstFailure(ranks));
  out->samples = double(steps) * kWorld * kBatchPerRank;
  const dist::DpReport& report = ranks[0].report;
  out->first_loss = report.losses.at(0);
  out->valid_loss = report.validation_loss;
  out->losses = report.losses;
  out->collectives_per_step = double(report.collectives) / steps;
  CheckLosses(*out, checks);
  const uint64_t expected = CollectivesPerStep(model) * steps;
  for (int r = 0; r < kWorld; ++r) {
    const dist::DpReport& rank_report = ranks[r].report;
    checks->Expect(rank_report.losses == report.losses,
                   "rank " + std::to_string(r) + " losses differ from rank 0");
    checks->Expect(rank_report.collectives == expected,
                   "rank " + std::to_string(r) + " ran " +
                       std::to_string(rank_report.collectives) +
                       " collectives, expected " + std::to_string(expected));
    out->cpu_peak_bytes += PeakBytes(ranks[r].memory->cpu_arena());
  }
  return util::Status::OK();
}

util::Status Zero3Traced(const RunConfig& config, const Rep& reference,
                         TracedResult* out, Checks* checks) {
  const train::MlpModel model({Dims()});
  const train::SyntheticRegression dataset(
      model.InputSize(), kTeacherHidden, model.OutputSize(), config.seed);
  const int steps = TimedSteps(config);
  out->steps += steps;
  std::vector<ReplayRank> ranks(kWorld);
  ANGEL_RETURN_IF_ERROR(obs::StartTracing(config.scratch + "/trace.json"));
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        ranks[r].status = Replay(model, dataset, config, r, steps, &ranks[r]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  CheckNoDroppedSpans(checks);
  ANGEL_RETURN_IF_ERROR(obs::StopTracing());
  for (int r = 0; r < kWorld; ++r) {
    if (!ranks[r].status.ok()) {
      return util::Status(ranks[r].status.code(),
                          "replay rank " + std::to_string(r) + ": " +
                              ranks[r].status.message());
    }
  }
  // The replay trains on the same shards and batches with the same
  // arithmetic, so it must reproduce the product run's losses exactly.
  checks->Expect(ranks[0].losses == reference.losses,
                 "replayed losses differ from ShardedDataParallel::Train's");
  checks->Expect(ranks[0].valid_loss == reference.valid_loss,
                 "replayed validation loss differs from Train()'s");

  // Per-rank phase times, averaged over ranks; bytes summed over ranks.
  PhaseClock mean;
  double train_s = 0, bytes_sent = 0, gpu_peak = 0;
  for (const ReplayRank& rank : ranks) {
    for (int p = 0; p < int(Phase::kCount); ++p) {
      mean.Add(Phase(p), rank.clock.ms(Phase(p)) / kWorld);
    }
    train_s = std::max(train_s, rank.train_s);
    bytes_sent += double(rank.bytes_sent);
    gpu_peak += double(rank.gpu_peak_bytes);
  }
  Metrics& m = out->metrics;
  const double n = steps;
  const double fwd = mean.ms(Phase::kForward) / n;
  const double bwd = mean.ms(Phase::kBackward) / n;
  m.Set("train.fwd_ms", fwd);
  m.Set("train.bwd_ms", bwd);
  m.Set("train.bare_step_ms",
        BareStepMs(model, kBatchPerRank, config.seed, 5));
  m.Set("train.model_gflops",
        MlpStepFlops(Dims(), kBatchPerRank) / ((fwd + bwd) * 1e6));
  m.Set("mem.gpu_peak_mb", gpu_peak / kMB);
  m.Set("mem.cpu_peak_mb", reference.cpu_peak_bytes / kMB);
  m.Set("dist.collectives_per_step", reference.collectives_per_step);
  m.Set("dist.allgather_ms", mean.ms(Phase::kAllGather) / n);
  m.Set("dist.reduce_scatter_ms", mean.ms(Phase::kReduceScatter) / n);
  m.Set("dist.allreduce_ms", mean.ms(Phase::kAllReduce) / n);
  m.Set("dist.stage_ms", mean.ms(Phase::kStage) / n);
  m.Set("dist.mb_per_step", bytes_sent / n / kMB);
  m.Set("dist.rank_compute_ms", fwd + bwd);
  m.Set("dist.shard_update_ms", mean.ms(Phase::kShardUpdate) / n);
  m.Set("dist.shard_io_ms", mean.ms(Phase::kShardIo) / n);
  // Both sides time the same span: the last rank's Train() (or its
  // replay) from batch generation to the end of validation.
  m.Set("obs.trace_overhead",
        reference.samples_per_s() / (n * kWorld * kBatchPerRank / train_s));
  m.Set("trace.step_ms", mean.ms(Phase::kStep) / n);
  m.Set("trace.coverage", mean.LayerMs() / mean.ms(Phase::kStep));
  return util::Status::OK();
}

}  // namespace angelptm::perfbench
