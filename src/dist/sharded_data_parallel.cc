#include "dist/sharded_data_parallel.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <thread>

#include "obs/trace.h"
#include "train/kernels.h"
#include "util/logging.h"

namespace angelptm::dist {

std::string ShardCheckpointStem(int world_size, int rank) {
  char stem[32];
  std::snprintf(stem, sizeof(stem), "shard-w%05d-r%05d", world_size, rank);
  return stem;
}

ShardedDataParallel::ShardedDataParallel(core::Allocator* allocator,
                                         const train::LayeredModel* model,
                                         const ShardedDpOptions& options)
    : allocator_(allocator),
      model_(model),
      options_(options),
      rng_(options.seed) {}

ShardedDataParallel::~ShardedDataParallel() {
  for (auto& shard : shards_) {
    for (auto* tensors : {&shard.p32, &shard.replica}) {
      for (core::Tensor* tensor : *tensors) {
        if (tensor != nullptr) (void)allocator_->Release(tensor);
      }
    }
    for (auto& slot : shard.slots) {
      for (core::Tensor* tensor : slot) {
        if (tensor != nullptr) (void)allocator_->Release(tensor);
      }
    }
  }
}

std::vector<int> ShardedDataParallel::LocalRanks() const {
  if (options_.backend == DpBackend::kProcessGroup) {
    return {options_.rank};
  }
  std::vector<int> ranks(size_t(options_.world_size));
  for (int r = 0; r < options_.world_size; ++r) ranks[size_t(r)] = r;
  return ranks;
}

util::Status ShardedDataParallel::Init() {
  const int world = options_.world_size;
  if (world < 1) {
    return util::Status::InvalidArgument(
        "world_size must be >= 1, got " + std::to_string(world));
  }
  if (options_.backend == DpBackend::kProcessGroup) {
    if (options_.rank < 0 || options_.rank >= world) {
      return util::Status::InvalidArgument(
          "rank " + std::to_string(options_.rank) +
          " outside world of " + std::to_string(world));
    }
    if (options_.rendezvous.empty()) {
      return util::Status::InvalidArgument(
          "kProcessGroup backend needs a rendezvous path");
    }
  }
  ANGEL_ASSIGN_OR_RETURN(
      optimizer_, core::Optimizer::Create(core::ResolveLegacyAdam(
                      options_.optimizer, options_.adam)));

  // Connect the collective backend before touching memory: for the process
  // group this blocks until all world_size processes joined, so a rank that
  // fails rendezvous fails fast without having allocated anything.
  if (options_.backend == DpBackend::kProcessGroup) {
    ProcessGroupOptions pg_options;
    pg_options.rank = options_.rank;
    pg_options.world_size = world;
    pg_options.rendezvous = options_.rendezvous;
    ANGEL_ASSIGN_OR_RETURN(auto group, ProcessGroup::Connect(pg_options));
    pg_ = std::make_unique<ProcessGroupCollectives>(std::move(group));
  } else {
    comm_ = std::make_unique<core::Communicator>(world);
  }

  const std::vector<int> local_ranks = LocalRanks();
  if (options_.rank_gpu_capacity_bytes > 0) {
    rank_memories_.resize(size_t(world));
    rank_allocators_.resize(size_t(world));
    for (int r : local_ranks) {
      mem::HierarchicalMemoryOptions memory_options;
      memory_options.page_bytes = 64 * 1024;
      memory_options.gpu_capacity_bytes = options_.rank_gpu_capacity_bytes;
      memory_options.cpu_capacity_bytes = options_.rank_gpu_capacity_bytes;
      rank_memories_[size_t(r)] =
          std::make_unique<mem::HierarchicalMemory>(memory_options);
      rank_allocators_[size_t(r)] =
          std::make_unique<core::Allocator>(rank_memories_[size_t(r)].get());
    }
  }

  shards_.resize(model_->num_layers());
  for (int l = 0; l < model_->num_layers(); ++l) {
    Shard& shard = shards_[l];
    shard.full_count = model_->LayerParamCount(l);
    shard.padded_count =
        (shard.full_count + world - 1) / world * world;
    shard.shard_count = shard.padded_count / world;

    // Every rank draws the SAME full initialization from its own rng_
    // stream (seed-identical across processes), so scattering is local:
    // each rank just keeps its slice.
    std::vector<float> full = model_->InitLayerParams(l, &rng_);
    full.resize(shard.padded_count, 0.0f);
    // Each rank's shard carries its own optimizer state, laid out by the
    // rule for the shard's element count (ZeRO: optimizer states shard
    // with the parameters).
    shard.layout = optimizer_->SlotLayout(shard.shard_count);
    shard.p32.assign(size_t(world), nullptr);
    shard.slots.assign(size_t(world), {});
    for (int r : local_ranks) {
      const uint64_t group = uint64_t(l) * 64 + r;
      ANGEL_ASSIGN_OR_RETURN(
          shard.p32[r],
          allocator_->Allocate({shard.shard_count}, core::DType::kFp32,
                               mem::DeviceKind::kCpu, group));
      for (const core::SlotSpec& spec : shard.layout) {
        ANGEL_ASSIGN_OR_RETURN(
            core::Tensor * slot,
            allocator_->Allocate({spec.count}, core::DType::kFp32,
                                 mem::DeviceKind::kCpu, group));
        shard.slots[r].push_back(slot);
        ANGEL_RETURN_IF_ERROR(slot->Clear());
      }
      const std::vector<float> slice(
          full.begin() + r * shard.shard_count,
          full.begin() + (r + 1) * shard.shard_count);
      ANGEL_RETURN_IF_ERROR(shard.p32[r]->WriteFloats(slice));
    }
    if (options_.stage == ZeroStage::kStage1) {
      // Stage 1: parameters are NOT sharded — full replica per rank.
      shard.replica.assign(size_t(world), nullptr);
      for (int r : local_ranks) {
        ANGEL_ASSIGN_OR_RETURN(
            shard.replica[r],
            allocator_->Allocate({shard.padded_count}, core::DType::kFp32,
                                 mem::DeviceKind::kCpu,
                                 uint64_t(l) * 64 + r));
        ANGEL_RETURN_IF_ERROR(shard.replica[r]->WriteFloats(full));
      }
    }
  }
  return util::Status::OK();
}

util::Status ShardedDataParallel::RankLoop(
    int rank, Collectives* comm, const train::SyntheticRegression& dataset,
    util::Rng* data, int start_step, int steps,
    std::vector<double>* step_losses, bool record_losses) {
  const int world = options_.world_size;
  const size_t batch = options_.batch_per_rank;
  const size_t global_batch = batch * size_t(world);
  const int num_layers = model_->num_layers();
  const size_t x_per_rank = batch * model_->InputSize();
  const size_t y_per_rank = batch * model_->OutputSize();

  // The step's buffers outlive the step, so each keeps its capacity and
  // later steps reuse its pages instead of allocating fresh ones.
  std::vector<float> global_x, global_y, acts, next, grad, grad_in,
      grad_params, shard_grad, mine;
  std::vector<std::vector<float>> params(num_layers);
  std::vector<train::LayerStash> stash(num_layers);
  std::vector<core::Tensor*> staged(num_layers, nullptr);

  for (int step = 0; step < std::min(start_step, steps); ++step) {
    dataset.GenBatch(data, global_batch, &global_x, &global_y);
  }
  for (int step = start_step; step < steps; ++step) {
    {
      ANGEL_SPAN("train", "gen_batch");
      dataset.GenBatch(data, global_batch, &global_x, &global_y);
    }

    // 1. Materialize full parameters. Stage 3: all-gather every layer's
    //    shards. Stage 1: read the rank's full replica.
    for (int l = 0; l < num_layers; ++l) {
      const Shard& shard = shards_[l];
      if (options_.stage == ZeroStage::kStage3) {
        ANGEL_RETURN_IF_ERROR(shard.p32[rank]->ReadFloats(&mine));
        params[l].resize(shard.padded_count);
        ANGEL_RETURN_IF_ERROR(comm->AllGather(mine.data(), shard.shard_count,
                                              params[l].data()));
      } else {
        ANGEL_RETURN_IF_ERROR(shard.replica[rank]->ReadFloats(&params[l]));
      }
      params[l].resize(shard.full_count);
    }

    // Optional: stage the gathered parameters into this rank's own fast
    // tier (fp32, page by page) so compute reads from "GPU" memory.
    if (!rank_allocators_.empty()) {
      core::Allocator* rank_allocator = rank_allocators_[rank].get();
      for (int l = 0; l < num_layers; ++l) {
        auto tensor = rank_allocator->Allocate(
            {params[l].size()}, core::DType::kFp32, mem::DeviceKind::kCpu);
        if (!tensor.ok()) continue;  // Tier pressure: compute from host.
        staged[l] = *tensor;
        ANGEL_RETURN_IF_ERROR(staged[l]->WriteFloats(params[l]));
        const util::Status moved =
            rank_allocator->Move(staged[l], mem::DeviceKind::kGpu);
        if (moved.IsResourceExhausted()) {
          // Keep it CPU-resident; later layers may evict naturally.
        } else if (!moved.ok()) {
          return moved;
        }
        ANGEL_RETURN_IF_ERROR(staged[l]->ReadFloats(&params[l]));
      }
    }

    // 2. Forward/backward on this rank's slice of the global batch.
    acts.assign(global_x.begin() + rank * x_per_rank,
                global_x.begin() + (rank + 1) * x_per_rank);
    for (int l = 0; l < num_layers; ++l) {
      model_->Forward(l, params[l].data(), acts, batch, &next, &stash[l]);
      acts.swap(next);
    }
    grad.resize(acts.size());
    double loss = train::MseLoss(acts.data(),
                                 global_y.data() + rank * y_per_rank,
                                 grad.data(), acts.size());

    // Global mean loss (an all-reduce of the scalar).
    float loss_value = float(loss);
    ANGEL_RETURN_IF_ERROR(comm->AllReduce(&loss_value, 1));
    if (record_losses) (*step_losses)[step] = loss_value / world;

    for (int l = num_layers - 1; l >= 0; --l) {
      model_->Backward(l, params[l].data(), stash[l], grad, batch, &grad_in,
                       &grad_params);
      grad.swap(grad_in);

      // 3. Reduce-scatter: this rank receives the summed gradient of its
      //    shard.
      const Shard& shard = shards_[l];
      grad_params.resize(shard.padded_count, 0.0f);
      shard_grad.resize(shard.shard_count);
      ANGEL_RETURN_IF_ERROR(comm->ReduceScatter(
          grad_params.data(), shard.padded_count, shard_grad.data()));

      // 4. The rule on the owned shard only, in place, with the summed
      //    gradient averaged across ranks.
      ANGEL_RETURN_IF_ERROR(core::ApplyRule(
          *optimizer_, shard.p32[rank], shard.slots[rank], step + 1,
          [&shard_grad, world](size_t lo, size_t n, float* out) {
            for (size_t i = 0; i < n; ++i) {
              out[i] = shard_grad[lo + i] / float(world);
            }
          }));

      if (options_.stage == ZeroStage::kStage1) {
        // Stage 1: gather the freshly updated shards into the full
        // replica so the next step's forward sees new parameters. The
        // layer's backward is done with params[l], so it takes the gather.
        ANGEL_RETURN_IF_ERROR(shard.p32[rank]->ReadFloats(&mine));
        params[l].resize(shard.padded_count);
        ANGEL_RETURN_IF_ERROR(comm->AllGather(mine.data(), shard.shard_count,
                                              params[l].data()));
        ANGEL_RETURN_IF_ERROR(shard.replica[rank]->WriteFloats(params[l]));
      }

      // The staged copy served this layer's forward and backward.
      if (staged[l] != nullptr) {
        ANGEL_RETURN_IF_ERROR(
            rank_allocators_[rank]->Release(staged[l]));
        staged[l] = nullptr;
      }
    }

    if (options_.checkpoint_every_n_steps > 0 &&
        (step + 1) % options_.checkpoint_every_n_steps == 0) {
      ANGEL_RETURN_IF_ERROR(SaveRankShards(rank, step + 1));
    }
  }
  return util::Status::OK();
}

core::CheckpointFiles ShardedDataParallel::RankFiles(int rank) const {
  return {options_.checkpoint_dir,
          ShardCheckpointStem(options_.world_size, rank)};
}

util::Status ShardedDataParallel::SaveRankShards(int rank, int step) {
  core::CheckpointCut cut;
  cut.progress.global_step = step;
  cut.rule = optimizer_->name();
  cut.layers.resize(shards_.size());
  for (size_t l = 0; l < shards_.size(); ++l) {
    const Shard& shard = shards_[l];
    std::vector<core::Tensor*> tensors = {shard.p32[rank]};
    tensors.insert(tensors.end(), shard.slots[rank].begin(),
                   shard.slots[rank].end());
    ANGEL_RETURN_IF_ERROR(core::CutMasters(tensors, shard.layout,
                                           allocator_->memory()->ssd(),
                                           &cut.layers[l]));
    cut.layers[l].step = step;
  }
  const core::CheckpointFiles files = RankFiles(rank);
  std::error_code ec;
  std::filesystem::create_directories(files.dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create checkpoint dir " + files.dir +
                                 ": " + ec.message());
  }
  ANGEL_RETURN_IF_ERROR(
      core::PersistCheckpoint(&cut, files.PathForStep(step)));
  files.Rotate(options_.checkpoint_keep_last);
  return util::Status::OK();
}

util::Status ShardedDataParallel::CheckShardFile(
    const core::ParsedCheckpoint& file, int step,
    const std::string& path) const {
  if (file.rule != optimizer_->name()) {
    return util::Status::InvalidArgument(
        path + " holds optimizer rule '" + file.rule + "', this job runs '" +
        optimizer_->name() + "'");
  }
  if (file.progress.global_step != step) {
    return util::Status::InvalidArgument(
        path + " holds step " + std::to_string(file.progress.global_step));
  }
  if (file.layers.size() != shards_.size()) {
    return util::Status::InvalidArgument(
        path + " has " + std::to_string(file.layers.size()) +
        " layers, model has " + std::to_string(shards_.size()));
  }
  for (size_t l = 0; l < shards_.size(); ++l) {
    const Shard& shard = shards_[l];
    const core::LockFreeUpdater::LayerState& layer = file.layers[l];
    bool fits = layer.params.size() == shard.shard_count &&
                layer.slots.size() == shard.layout.size();
    for (size_t s = 0; fits && s < shard.layout.size(); ++s) {
      fits = layer.slots[s].name == shard.layout[s].name &&
             layer.slots[s].values.size() == shard.layout[s].count;
    }
    if (!fits) {
      return util::Status::InvalidArgument(
          path + ": layer " + std::to_string(l) +
          " does not match this job's shard layout");
    }
  }
  return util::Status::OK();
}

util::Result<int> ShardedDataParallel::TryResume() {
  if (options_.checkpoint_every_n_steps <= 0 ||
      options_.checkpoint_dir.empty()) {
    return 0;
  }
  // Another world size's files mean the job changed shape: refuse rather
  // than start over beside them.
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.checkpoint_dir, ec)) {
    const std::string name = entry.path().filename().string();
    int world = 0, rank = 0;
    if (std::sscanf(name.c_str(), "shard-w%5d-r%5d-", &world, &rank) == 2 &&
        world != options_.world_size &&
        core::CheckpointFiles{"", ShardCheckpointStem(world, rank)}.StepOf(
            name) >= 0) {
      return util::Status::InvalidArgument(
          options_.checkpoint_dir + " holds shard checkpoints of a " +
          std::to_string(world) + "-rank world (" + name + "); this job has " +
          std::to_string(options_.world_size) + " ranks");
    }
  }
  // The resume point is the newest step EVERY rank has on disk: a rank that
  // died mid-save leaves the job one interval behind, never inconsistent.
  const std::vector<int> local_ranks = LocalRanks();
  int local_min = -1;
  for (int r : local_ranks) {
    const std::vector<int64_t> steps = RankFiles(r).Steps();
    const int step = steps.empty() ? 0 : int(steps.back());
    local_min = local_min < 0 ? step : std::min(local_min, step);
  }
  int agreed = std::max(local_min, 0);
  if (options_.backend == DpBackend::kProcessGroup) {
    // Agreement across processes: all-gather each rank's latest step and
    // take the minimum (steps are small ints, exact in float).
    const float mine = float(agreed);
    std::vector<float> all(size_t(options_.world_size));
    ANGEL_RETURN_IF_ERROR(pg_->AllGather(&mine, 1, all.data()));
    agreed = int(*std::min_element(all.begin(), all.end()));
  }
  if (agreed <= 0) return 0;

  std::vector<core::ParsedCheckpoint> files;
  for (int r : local_ranks) {
    const std::string path = RankFiles(r).PathForStep(agreed);
    ANGEL_ASSIGN_OR_RETURN(core::ParsedCheckpoint file,
                           core::ParseCheckpoint(path));
    ANGEL_RETURN_IF_ERROR(CheckShardFile(file, agreed, path));
    files.push_back(std::move(file));
  }
  for (size_t i = 0; i < local_ranks.size(); ++i) {
    const int r = local_ranks[i];
    for (size_t l = 0; l < shards_.size(); ++l) {
      const Shard& shard = shards_[l];
      const core::LockFreeUpdater::LayerState& layer = files[i].layers[l];
      ANGEL_RETURN_IF_ERROR(shard.p32[r]->WriteFloats(layer.params));
      for (size_t s = 0; s < shard.layout.size(); ++s) {
        ANGEL_RETURN_IF_ERROR(
            shard.slots[r][s]->WriteFloats(layer.slots[s].values));
      }
    }
  }

  if (options_.stage == ZeroStage::kStage1) {
    // Stage 1 keeps full replicas; rebuild them from the restored shards.
    for (size_t l = 0; l < shards_.size(); ++l) {
      ANGEL_ASSIGN_OR_RETURN(const std::vector<float> full,
                             GatherPadded(int(l)));
      for (int r : local_ranks) {
        ANGEL_RETURN_IF_ERROR(shards_[l].replica[r]->WriteFloats(full));
      }
    }
  }
  return agreed;
}

util::Result<DpReport> ShardedDataParallel::Train(
    const train::SyntheticRegression& dataset, int steps) {
  if (shards_.empty()) {
    return util::Status::FailedPrecondition("Init() not called");
  }
  const int world = options_.world_size;
  ANGEL_ASSIGN_OR_RETURN(const int start_step, TryResume());

  // Every rank streams the global batches from step 0 out of its own copy
  // of the data cursor, resuming or not: the data stream is a pure function
  // of the seed (Init consumed rng_ identically in every incarnation), so a
  // restarted job replays the exact batches its predecessor saw and the
  // resumed run stays bitwise on course.
  std::vector<util::Rng> cursors(LocalRanks().size(), rng_);
  DpReport report;
  report.resumed_step = start_step;
  report.losses.assign(steps, 0.0);
  if (options_.backend == DpBackend::kProcessGroup) {
    ANGEL_RETURN_IF_ERROR(RankLoop(options_.rank, pg_.get(), dataset,
                                   &cursors[0], start_step, steps,
                                   &report.losses, /*record_losses=*/true));
    report.collectives = pg_->collectives_completed();
  } else {
    std::vector<util::Status> statuses(world);
    std::vector<std::thread> ranks;
    ranks.reserve(world);
    for (int r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        InProcessCollectives comm(comm_.get(), r);
        statuses[r] = RankLoop(r, &comm, dataset, &cursors[size_t(r)],
                               start_step, steps, &report.losses,
                               /*record_losses=*/r == 0);
      });
    }
    for (auto& t : ranks) t.join();
    for (const util::Status& status : statuses) {
      ANGEL_RETURN_IF_ERROR(status);
    }
    report.collectives = comm_->collectives_completed();
  }
  // The cursor ends after batch `steps`, wherever the run resumed.
  rng_ = cursors[0];
  report.final_train_loss = steps > 0 ? report.losses.back() : 0.0;

  // Validation with the gathered full parameters.
  std::vector<std::vector<float>> params(model_->num_layers());
  for (int l = 0; l < model_->num_layers(); ++l) {
    ANGEL_ASSIGN_OR_RETURN(params[l], GatherLayerParams(l));
  }
  util::Rng validation_rng(options_.seed ^ 0x5EEDF00Dull);
  const size_t batch = options_.batch_per_rank * world;
  double total = 0.0;
  const int validation_batches = 4;
  for (int i = 0; i < validation_batches; ++i) {
    std::vector<float> x, y;
    dataset.GenBatch(&validation_rng, batch, &x, &y);
    std::vector<float> acts = x;
    for (int l = 0; l < model_->num_layers(); ++l) {
      std::vector<float> next;
      model_->Forward(l, params[l].data(), acts, batch, &next, nullptr);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    total += train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  }
  report.validation_loss = total / validation_batches;
  return report;
}

util::Result<std::vector<float>> ShardedDataParallel::GatherLayerParams(
    int layer) {
  if (layer < 0 || layer >= int(shards_.size())) {
    return util::Status::InvalidArgument("bad layer index");
  }
  ANGEL_ASSIGN_OR_RETURN(std::vector<float> full, GatherPadded(layer));
  full.resize(shards_[layer].full_count);
  return full;
}

util::Result<std::vector<float>> ShardedDataParallel::GatherPadded(
    int layer) {
  const Shard& shard = shards_[layer];
  std::vector<float> full;
  if (options_.backend == DpBackend::kProcessGroup) {
    std::vector<float> mine;
    ANGEL_RETURN_IF_ERROR(shard.p32[options_.rank]->ReadFloats(&mine));
    full.resize(shard.padded_count);
    ANGEL_RETURN_IF_ERROR(
        pg_->AllGather(mine.data(), shard.shard_count, full.data()));
    return full;
  }
  full.reserve(shard.padded_count);
  std::vector<float> slice;
  for (int r = 0; r < options_.world_size; ++r) {
    ANGEL_RETURN_IF_ERROR(shard.p32[r]->ReadFloats(&slice));
    full.insert(full.end(), slice.begin(), slice.end());
  }
  return full;
}

}  // namespace angelptm::dist
