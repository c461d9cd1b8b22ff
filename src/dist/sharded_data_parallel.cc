#include "dist/sharded_data_parallel.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <system_error>
#include <thread>

#include "obs/trace.h"
#include "train/kernels.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace angelptm::dist {

namespace {

/// Waits, on the rank thread, for a task posted to its comm lane.
[[nodiscard]] util::Status Await(std::future<util::Status>* done) {
  ANGEL_SPAN("dist", "wait");
  return done->get();
}

/// One rank's comm lane (DESIGN.md §14.1): a one-thread pool that runs the
/// rank's collectives in the order they were posted, while the rank thread
/// computes. Each task reports its Status through the future Post returns.
/// The first failing task's Status wins: every later task skips its work
/// and reports that Status, so the rank thread leaves its loop with it and
/// issues no collective past the failure.
class CommLane {
 public:
  CommLane() = default;
  // Its tasks hold `this`.
  CommLane(const CommLane&) = delete;
  CommLane& operator=(const CommLane&) = delete;

  [[nodiscard]] std::future<util::Status> Post(
      std::function<util::Status()> task) {
    auto done = std::make_shared<std::promise<util::Status>>();
    std::future<util::Status> result = done->get_future();
    if (!pool_.Submit([this, done, task = std::move(task)] {
          if (failed_.ok()) failed_ = task();
          done->set_value(failed_);
        })) {
      done->set_value(util::Status::Internal("comm lane shut down"));
    }
    return result;
  }

  /// Waits for every task posted so far; returns the first failure.
  [[nodiscard]] util::Status Drain() {
    std::future<util::Status> drained =
        Post([] { return util::Status::OK(); });
    return Await(&drained);
  }

 private:
  /// The first failure. Only the lane thread touches it.
  util::Status failed_;
  /// Declared last, so that it joins its thread before failed_ goes.
  util::ThreadPool pool_{1};
};

/// Stages a layer's gathered parameters through the rank's own fast tier
/// (fp32, page by page) so that compute reads them from "GPU" memory.
/// Under tier pressure the layer computes from host memory instead and
/// `staged` stays null.
[[nodiscard]] util::Status StageParams(core::Allocator* rank_allocator,
                                       std::vector<float>* params,
                                       core::Tensor** staged) {
  auto tensor = rank_allocator->Allocate({params->size()}, core::DType::kFp32,
                                         mem::DeviceKind::kCpu);
  if (!tensor.ok()) return util::Status::OK();
  *staged = *tensor;
  ANGEL_RETURN_IF_ERROR((*staged)->WriteFloats(*params));
  const util::Status moved =
      rank_allocator->Move(*staged, mem::DeviceKind::kGpu);
  // ResourceExhausted keeps it CPU-resident; later layers may evict
  // naturally.
  if (!moved.ok() && !moved.IsResourceExhausted()) return moved;
  return (*staged)->ReadFloats(params);
}

}  // namespace

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
  const bool stage3 = options_.stage == ZeroStage::kStage3;
  core::Allocator* rank_allocator =
      rank_allocators_.empty() ? nullptr : rank_allocators_[rank].get();

  // The step's buffers outlive the step, so each keeps its capacity and
  // later steps reuse its pages instead of allocating fresh ones. Every
  // buffer the lane writes is sized here, on the rank thread, before the
  // lane starts: grown on the lane thread, glibc would place it in that
  // thread's arena, which the validation pass after the loop cannot reuse.
  size_t max_shard = 0, max_padded = 0;
  for (const Shard& shard : shards_) {
    max_shard = std::max(max_shard, shard.shard_count);
    max_padded = std::max(max_padded, shard.padded_count);
  }
  std::vector<float> x, y, acts, next, grad, grad_in;
  std::vector<float> mine(max_shard), shard_grad(max_shard);
  // Backward(l) writes grads[l % 2] while the lane reduce-scatters layer
  // l + 1 out of the other one.
  std::vector<float> grads[2] = {std::vector<float>(max_padded),
                                 std::vector<float>(max_padded)};
  std::vector<std::vector<float>> params(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    params[l].resize(shards_[l].padded_count);
  }
  std::vector<train::LayerStash> stash(num_layers);
  std::vector<core::Tensor*> staged(num_layers, nullptr);
  float loss_value = 0.0f;
  comm->Reserve(max_padded * sizeof(float));

  // The batches a resumed checkpoint already covers are skipped.
  for (int step = 0; step < std::min(start_step, steps); ++step) {
    dataset.GenBatchRows(data, global_batch, 0, 0, &x, &y);
  }

  // Declared after every buffer its tasks touch, so that an early return
  // joins the lane before they are freed. From its first post to its last
  // drain the lane alone drives `comm`. Every rank posts the same tasks in
  // the same order, so the collectives keep one sequence across ranks.
  CommLane lane;
  std::vector<std::future<util::Status>> gathered(num_layers);
  std::vector<std::future<util::Status>> reduced(num_layers);
  std::future<util::Status> loss_reduced;
  for (int step = start_step; step < steps; ++step) {
    // 1. Materialize every layer's full parameters on the lane, in layer
    //    order. Stage 3: all-gather the shards. Stage 1: read the rank's
    //    full replica. Then, optionally, stage them in the rank's tier.
    for (int l = 0; l < num_layers; ++l) {
      gathered[l] = lane.Post([&, l] {
        ANGEL_SPAN("dist", "all_gather");
        const Shard& shard = shards_[l];
        std::vector<float>& full = params[l];
        if (stage3) {
          ANGEL_RETURN_IF_ERROR(shard.p32[rank]->ReadFloats(&mine));
          full.resize(shard.padded_count);
          ANGEL_RETURN_IF_ERROR(
              comm->AllGather(mine.data(), shard.shard_count, full.data()));
        } else {
          ANGEL_RETURN_IF_ERROR(shard.replica[rank]->ReadFloats(&full));
        }
        full.resize(shard.full_count);
        return rank_allocator == nullptr
                   ? util::Status::OK()
                   : StageParams(rank_allocator, &full, &staged[l]);
      });
    }
    {
      ANGEL_SPAN("train", "gen_batch");
      dataset.GenBatchRows(data, global_batch, size_t(rank) * batch, batch,
                           &x, &y);
    }
    // The previous step's loss all-reduce is done with loss_value.
    if (loss_reduced.valid()) ANGEL_RETURN_IF_ERROR(Await(&loss_reduced));

    // 2. Forward/backward on this rank's slice of the global batch, each
    //    layer as soon as its parameters have landed.
    for (int l = 0; l < num_layers; ++l) {
      ANGEL_RETURN_IF_ERROR(Await(&gathered[l]));
      ANGEL_SPAN("train", "forward");
      model_->Forward(l, params[l].data(), l == 0 ? x : acts, batch, &next,
                      &stash[l]);
      acts.swap(next);
    }
    grad.resize(acts.size());
    loss_value = float(
        train::MseLoss(acts.data(), y.data(), grad.data(), acts.size()));

    // Global mean loss (an all-reduce of the scalar); the backward pass
    // does not wait for it.
    loss_reduced = lane.Post([&, step] {
      ANGEL_SPAN("dist", "loss_all_reduce");
      ANGEL_RETURN_IF_ERROR(comm->AllReduce(&loss_value, 1));
      if (record_losses) (*step_losses)[step] = loss_value / world;
      return util::Status::OK();
    });

    for (int l = num_layers - 1; l >= 0; --l) {
      // The lane's reduce-scatter of layer l + 2 read the same buffer.
      if (l + 2 < num_layers) ANGEL_RETURN_IF_ERROR(Await(&reduced[l + 2]));
      std::vector<float>& grad_params = grads[l % 2];
      {
        ANGEL_SPAN("train", "backward");
        model_->Backward(l, params[l].data(), stash[l], grad, batch,
                         &grad_in, &grad_params);
        grad.swap(grad_in);
      }
      grad_params.resize(shards_[l].padded_count, 0.0f);

      // 3. Reduce-scatter on the lane while Backward(l - 1) runs: this rank
      //    receives the summed gradient of its shard. 4. The rule on the
      //    owned shard only, in place, with that gradient averaged across
      //    ranks.
      reduced[l] = lane.Post([&, l, step] {
        ANGEL_SPAN("dist", "reduce_scatter");
        const Shard& shard = shards_[l];
        ANGEL_RETURN_IF_ERROR(comm->ReduceScatter(
            grads[l % 2].data(), shard.padded_count, shard_grad.data()));
        ANGEL_RETURN_IF_ERROR(core::ApplyRule(
            *optimizer_, shard.p32[rank], shard.slots[rank], step + 1,
            [&shard_grad, world](size_t lo, size_t n, float* out) {
              for (size_t i = 0; i < n; ++i) {
                out[i] = shard_grad[lo + i] / float(world);
              }
            }));
        if (!stage3) {
          // Stage 1: gather the freshly updated shards into the full
          // replica so the next step's forward sees new parameters. The
          // layer's backward is done with params[l], so it takes the
          // gather.
          ANGEL_RETURN_IF_ERROR(shard.p32[rank]->ReadFloats(&mine));
          params[l].resize(shard.padded_count);
          ANGEL_RETURN_IF_ERROR(comm->AllGather(
              mine.data(), shard.shard_count, params[l].data()));
          ANGEL_RETURN_IF_ERROR(shard.replica[rank]->WriteFloats(params[l]));
        }
        // The staged copy served this layer's forward and backward.
        if (staged[l] != nullptr) {
          ANGEL_RETURN_IF_ERROR(rank_allocator->Release(staged[l]));
          staged[l] = nullptr;
        }
        return util::Status::OK();
      });
    }

    if (options_.checkpoint_every_n_steps > 0 &&
        (step + 1) % options_.checkpoint_every_n_steps == 0) {
      // The save reads the shards the lane updates.
      ANGEL_RETURN_IF_ERROR(lane.Drain());
      ANGEL_RETURN_IF_ERROR(SaveRankShards(rank, step + 1));
    }
  }
  return lane.Drain();
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
  // resumed run stays bitwise on course. The resume above and the
  // validation below drive the collectives from this thread; in between,
  // each rank's comm lane does.
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
        // Fail-stop: the rank's lane has joined, so no peer reads its
        // buffers any more; its peers leave their collectives with
        // Cancelled instead of waiting for it forever.
        if (!statuses[r].ok()) comm_->Abort(r);
      });
    }
    for (auto& t : ranks) t.join();
    // The rank that failed first, not a peer whose collective it abandoned.
    if (const int failed = comm_->aborted_by(); failed >= 0) {
      return statuses[size_t(failed)];
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
