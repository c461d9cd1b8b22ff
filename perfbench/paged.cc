// paged_lockfree_ssd: the paper's full system (§4.3, §6.5). A TinyTransformer
// trained through EngineTrainer with lock-free updates, fp32 masters and
// Adam moments on the file-backed SSD tier, activation offload, a fast tier
// holding about half the fp16 parameters, and periodic checkpoints.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.h"
#include "core/engine.h"
#include "train/engine_trainer.h"
#include "train/kernels.h"

namespace angelptm::perfbench {
namespace {

constexpr size_t kBatch = 8;
constexpr size_t kPageBytes = 64 * 1024;
constexpr size_t kTeacherHidden = 64;
constexpr double kLearningRate = 1e-4;
constexpr int kDrainDeadlineMs = 30000;

train::TransformerConfig ModelConfig() {
  train::TransformerConfig config;
  config.seq_len = 32;
  config.d_model = 256;
  config.num_heads = 4;
  config.d_ffn = 1024;
  config.num_blocks = 4;
  config.out_dim = 64;
  return config;
}

int TimedSteps(const RunConfig& config) { return config.smoke ? 3 : 16; }
int CheckpointEvery(const RunConfig& config) { return config.smoke ? 2 : 5; }

/// Tier capacities come from the model's footprint: PageArena zero-fills
/// its whole capacity, so an oversized tier would make peak RSS and set-up
/// time measure the configuration instead of the program.
train::EngineTrainerOptions Options(const train::LayeredModel& model,
                                    const RunConfig& config,
                                    const std::string& tag) {
  uint64_t fp16 = 0, fp32 = 0, fp32_layer_max = 0;
  for (int l = 0; l < model.num_layers(); ++l) {
    const uint64_t count = model.LayerParamCount(l);
    fp16 += PageRound(2 * count, kPageBytes);
    fp32 += PageRound(4 * count, kPageBytes);
    fp32_layer_max =
        std::max(fp32_layer_max, PageRound(4 * count, kPageBytes));
  }
  const uint64_t activations =
      model.num_layers() * PageRound(2 * kBatch * model.InputSize(), kPageBytes);

  train::EngineTrainerOptions options;
  mem::HierarchicalMemoryOptions& memory = options.engine.memory;
  memory.page_bytes = kPageBytes;
  // About half the fp16 working parameters fit (eviction pressure), plus
  // the boundary activations, which the engine stashes on the fast tier
  // first: without their room a scheduled prefetch loses its frames to a
  // stash and the copy engine counts a failed move.
  memory.gpu_capacity_bytes = PageRound(fp16 / 2, kPageBytes) + activations;
  // The updater's p'16 and g'16 buffers, every staged working tensor, the
  // boundary activations, and the fp32 master state (params + Adam m, v) of
  // two layers in flight from the SSD (an update plus a checkpoint snapshot
  // or master read); a quarter on top for page-packing holes.
  const uint64_t cpu = 3 * fp16 + activations + 2 * 3 * fp32_layer_max;
  memory.cpu_capacity_bytes = PageRound(cpu + cpu / 4, kPageBytes);
  const uint64_t ssd = 3 * fp32;
  memory.ssd_capacity_bytes = PageRound(ssd + ssd / 4, kPageBytes);
  memory.ssd_path = config.scratch + "/ssd-" + tag + ".bin";

  options.engine.optimizer.learning_rate = kLearningRate;
  options.engine.lock_free = true;
  options.engine.master_device = mem::DeviceKind::kSsd;
  options.batch_size = kBatch;
  options.offload_activations = true;
  options.seed = config.seed;
  options.drain_deadline_ms = kDrainDeadlineMs;
  options.checkpoint_every_n_steps = CheckpointEvery(config);
  options.checkpoint_dir = config.scratch + "/ckpt-" + tag;
  options.checkpoint_keep_last = 2;
  return options;
}

/// The newest checkpoint must load into a fresh trainer via TryResume.
void CheckResume(const train::LayeredModel& model,
                 const train::SyntheticRegression& dataset,
                 const train::EngineTrainerOptions& options,
                 int64_t saved_step, Checks* checks) {
  train::EngineTrainer fresh(&model, options);
  if (!checks->ExpectOk(fresh.Init(), "fresh trainer Init")) return;
  const util::Result<bool> resumed = fresh.TryResume(&dataset);
  if (!checks->ExpectOk(resumed.status(), "TryResume")) return;
  checks->Expect(*resumed, "TryResume found no checkpoint");
  checks->Expect(fresh.global_step() == saved_step,
                 "TryResume restored step " +
                     std::to_string(fresh.global_step()) +
                     ", newest save was step " + std::to_string(saved_step));
}

/// EngineTrainer::Step with activation offload, call for call, each call
/// into the engine or the model timed from outside.
util::Result<double> TracedStep(core::Engine* engine,
                                const train::LayeredModel& model,
                                const std::vector<float>& x,
                                const std::vector<float>& y,
                                PhaseClock* clock) {
  const int num_layers = model.num_layers();
  {
    Timed timed(clock, Phase::kStepEdges);
    ANGEL_RETURN_IF_ERROR(engine->BeginStep());
  }
  std::vector<train::LayerStash> stash(num_layers);
  std::vector<float> acts = x;
  for (int l = 0; l < num_layers; ++l) {
    {
      Timed timed(clock, Phase::kActStash);
      ANGEL_RETURN_IF_ERROR(engine->StashActivation(l, acts));
    }
    std::vector<float> params;
    {
      Timed timed(clock, Phase::kUseParams);
      ANGEL_ASSIGN_OR_RETURN(params, engine->UseLayerParams(l));
    }
    std::vector<float> next;
    {
      Timed timed(clock, Phase::kForward);
      model.Forward(l, params.data(), acts, kBatch, &next, nullptr);
    }
    acts = std::move(next);
  }
  std::vector<float> grad(acts.size());
  double loss = 0.0;
  {
    Timed timed(clock, Phase::kForward);
    loss = train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  }
  for (int l = num_layers - 1; l >= 0; --l) {
    std::vector<float> params, boundary, recomputed, grad_in, grad_params;
    {
      Timed timed(clock, Phase::kUseParams);
      ANGEL_ASSIGN_OR_RETURN(params, engine->UseLayerParams(l));
    }
    {
      Timed timed(clock, Phase::kActStash);
      ANGEL_ASSIGN_OR_RETURN(boundary, engine->FetchActivation(l));
    }
    {
      Timed timed(clock, Phase::kRecompute);
      model.Forward(l, params.data(), boundary, kBatch, &recomputed,
                    &stash[l]);
    }
    {
      Timed timed(clock, Phase::kBackward);
      model.Backward(l, params.data(), stash[l], grad, kBatch, &grad_in,
                     &grad_params);
    }
    {
      Timed timed(clock, Phase::kPushGrads);
      ANGEL_RETURN_IF_ERROR(engine->PushGrads(l, grad_params));
    }
    grad = std::move(grad_in);
  }
  {
    Timed timed(clock, Phase::kStepEdges);
    ANGEL_RETURN_IF_ERROR(engine->EndStep());
  }
  return loss;
}

/// Counters the layers expose, read before and after the traced steps.
struct Counters {
  uint64_t hits = 0, waits = 0, scheduled = 0;
  core::LockFreeUpdater::Stats updater;
  mem::MemorySnapshot memory;
  mem::SsdTier::Stats ssd;
  mem::CopyEngine::Stats copy;
  core::CheckpointManager::Stats ckpt;
};

Counters ReadCounters(core::Engine* engine, core::CheckpointManager* ckpt) {
  Counters c;
  c.hits = engine->prefetch_hits();
  c.waits = engine->prefetch_waits();
  c.scheduled = engine->scheduled_uses();
  c.updater = engine->updater()->Snapshot();
  c.memory = engine->memory()->Snapshot();
  c.ssd = engine->memory()->ssd()->Snapshot();
  c.copy = engine->copy_engine()->Snapshot();
  c.ckpt = ckpt->Snapshot();
  return c;
}

}  // namespace

util::Status PagedRep(const RunConfig& config, int rep, Rep* out,
                      Checks* checks) {
  const train::TinyTransformer model(ModelConfig());
  const train::SyntheticRegression dataset(
      model.InputSize(), kTeacherHidden, model.OutputSize(), config.seed);
  const train::EngineTrainerOptions options =
      Options(model, config, std::to_string(rep));
  const int steps = TimedSteps(config);
  out->steps = 1 + steps;

  const auto start = std::chrono::steady_clock::now();
  auto trainer = std::make_unique<train::EngineTrainer>(&model, options);
  ANGEL_RETURN_IF_ERROR(trainer->Init());
  // The traced first engine step, which builds the Algorithm-1 schedule,
  // is set-up.
  ANGEL_ASSIGN_OR_RETURN(const train::TrainReport first,
                         trainer->Train(dataset, 1));
  out->setup_s = SecondsSince(start);

  ANGEL_ASSIGN_OR_RETURN(const train::TrainReport report,
                         trainer->Train(dataset, steps));
  out->train_s = report.wall_seconds;
  out->samples = double(steps * kBatch);
  out->first_loss = first.losses.at(0);
  out->valid_loss = report.validation_loss;
  out->losses = report.losses;
  CheckLosses(*out, checks);

  core::Engine* engine = trainer->engine();
  checks->Expect(engine->prefetch_hits() + engine->prefetch_waits() ==
                     engine->scheduled_uses(),
                 "prefetch_hits + prefetch_waits != scheduled_uses");
  checks->ExpectOk(engine->updater()->status(), "updater status after drain");
  checks->Expect(report.telemetry.copy.moves_failed == 0,
                 "copy engine moves failed");
  const core::CheckpointManager::Stats& ckpt = report.telemetry.checkpoint;
  checks->Expect(ckpt.saves > 0 && ckpt.save_failures == 0,
                 "periodic checkpoints did not all save");

  trainer.reset();  // Stops the updater; the SSD file goes with the tier.
  if (rep == 0) {
    CheckResume(model, dataset, options, ckpt.last_saved_step, checks);
  }
  return util::Status::OK();
}

util::Status PagedTraced(const RunConfig& config, const Rep& reference,
                         TracedResult* out, Checks* checks) {
  const train::TinyTransformer model(ModelConfig());
  const train::SyntheticRegression dataset(
      model.InputSize(), kTeacherHidden, model.OutputSize(), config.seed);
  train::EngineTrainer trainer(&model, Options(model, config, "traced"));
  ANGEL_RETURN_IF_ERROR(trainer.Init());
  core::Engine* engine = trainer.engine();
  core::CheckpointManager* ckpt = trainer.checkpoint_manager();
  util::Rng rng = DataCursor(model, config.seed);
  std::vector<float> x, y;
  PhaseClock clock;

  // The first engine step traces and builds the schedule (set-up in the
  // product run); it is not measured here either.
  dataset.GenBatch(&rng, kBatch, &x, &y);
  out->steps += 1;
  ANGEL_RETURN_IF_ERROR(TracedStep(engine, model, x, y, &clock).status());
  int64_t step = 1;
  clock.Reset();

  const Counters before = ReadCounters(engine, ckpt);
  const int steps = TimedSteps(config);
  out->steps += steps;
  ANGEL_RETURN_IF_ERROR(obs::StartTracing(config.scratch + "/trace.json"));
  const auto loop_start = std::chrono::steady_clock::now();
  bool finite = true;
  for (int i = 0; i < steps; ++i) {
    dataset.GenBatch(&rng, kBatch, &x, &y);
    Timed timed(&clock, Phase::kStep);
    ANGEL_ASSIGN_OR_RETURN(const double loss,
                           TracedStep(engine, model, x, y, &clock));
    finite = finite && std::isfinite(loss);
    step += 1;
    if (step % CheckpointEvery(config) == 0) {
      core::TrainProgress progress;
      progress.global_step = step;
      progress.rng_state = rng.GetState();
      progress.has_progress = true;
      Timed save(&clock, Phase::kCheckpoint);
      checks->ExpectOk(ckpt->Save(engine->updater(), progress),
                       "checkpoint save");
    }
  }
  checks->ExpectOk(engine->updater()->DrainUpdates(
                       std::chrono::milliseconds(kDrainDeadlineMs)),
                   "updater drain");
  const double loop_s = SecondsSince(loop_start);
  CheckNoDroppedSpans(checks);
  ANGEL_RETURN_IF_ERROR(obs::StopTracing());
  const Counters after = ReadCounters(engine, ckpt);

  const double n = steps;
  const uint64_t scheduled = after.scheduled - before.scheduled;
  checks->Expect(finite, "non-finite traced loss");
  checks->Expect((after.hits - before.hits) + (after.waits - before.waits) ==
                     scheduled,
                 "traced prefetch_hits + prefetch_waits != scheduled_uses");
  checks->ExpectOk(engine->updater()->status(), "traced updater status");
  checks->Expect(after.copy.moves_failed == before.copy.moves_failed,
                 "traced copy engine moves failed");

  Metrics& m = out->metrics;
  const double fwd = clock.ms(Phase::kForward) / n;
  const double bwd = clock.ms(Phase::kBackward) / n;
  const double step_ms = clock.ms(Phase::kStep) / n;
  const double bare = BareStepMs(model, kBatch, config.seed, 3);
  m.Set("train.fwd_ms", fwd);
  m.Set("train.bwd_ms", bwd);
  m.Set("train.recompute_ms", clock.ms(Phase::kRecompute) / n);
  m.Set("train.bare_step_ms", bare);
  m.Set("train.model_gflops",
        TransformerStepFlops(ModelConfig(), kBatch) / ((fwd + bwd) * 1e6));
  m.Set("engine.use_params_ms", clock.ms(Phase::kUseParams) / n);
  m.Set("engine.act_stash_ms", clock.ms(Phase::kActStash) / n);
  m.Set("engine.push_grads_ms", clock.ms(Phase::kPushGrads) / n);
  m.Set("engine.step_edges_ms", clock.ms(Phase::kStepEdges) / n);
  m.Set("engine.prefetch_hit_rate",
        scheduled ? double(after.hits - before.hits) / scheduled : 0.0);
  m.Set("engine.scheduled_uses", double(scheduled));
  m.Set("engine.overhead_ratio", step_ms / bare);

  const uint64_t updates =
      after.updater.updates_applied - before.updater.updates_applied;
  m.Set("updater.updates_per_step", updates / n);
  m.Set("updater.staleness_mean",
        updates ? double(after.updater.grad_batches_applied -
                         before.updater.grad_batches_applied) /
                      updates
                : 0.0);
  m.Set("updater.backpressure_waits",
        double(after.updater.backpressure_waits -
               before.updater.backpressure_waits));

  using mem::DeviceKind;
  const auto link_bytes = [&](DeviceKind from, DeviceKind to) {
    return double(after.memory.link(from, to).bytes -
                  before.memory.link(from, to).bytes);
  };
  m.Set("mem.h2d_mb_per_step",
        link_bytes(DeviceKind::kCpu, DeviceKind::kGpu) / n / kMB);
  m.Set("mem.evict_mb_per_step",
        link_bytes(DeviceKind::kGpu, DeviceKind::kCpu) / n / kMB);
  m.Set("copy.moves_per_step",
        (after.copy.moves_completed - before.copy.moves_completed) / n);
  m.Set("copy.moves_failed",
        double(after.copy.moves_failed - before.copy.moves_failed));
  m.Set("mem.gpu_peak_mb", PeakBytes(engine->memory()->gpu_arena()) / kMB);
  m.Set("mem.cpu_peak_mb", PeakBytes(engine->memory()->cpu_arena()) / kMB);

  const uint64_t batches = after.ssd.io_batches - before.ssd.io_batches;
  m.Set("ssd.read_mb_per_step",
        (after.ssd.bytes_read - before.ssd.bytes_read) / n / kMB);
  m.Set("ssd.write_mb_per_step",
        (after.ssd.bytes_written - before.ssd.bytes_written) / n / kMB);
  m.Set("ssd.coalesce_factor",
        batches ? double(after.ssd.queued_requests -
                         before.ssd.queued_requests) /
                      batches
                : 0.0);
  m.Set("ssd.io_batches", double(batches));
  m.Set("ssd.io_retries",
        double(after.ssd.io_retries - before.ssd.io_retries));

  const uint64_t saves = after.ckpt.saves - before.ckpt.saves;
  if (saves > 0) {
    m.Set("ckpt.save_ms", clock.ms(Phase::kCheckpoint) / saves);
    m.Set("ckpt.mb_per_save",
          (after.ckpt.bytes_written - before.ckpt.bytes_written) /
              double(saves) / kMB);
  }

  m.Set("obs.trace_overhead",
        reference.samples_per_s() / (n * kBatch / loop_s));
  m.Set("trace.step_ms", step_ms);
  m.Set("trace.coverage", clock.LayerMs() / clock.ms(Phase::kStep));
  return util::Status::OK();
}

}  // namespace angelptm::perfbench
