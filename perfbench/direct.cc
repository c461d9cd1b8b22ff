// direct_sync_longseq: compute-bound. The plain Trainer (direct updater, no
// paged engine) in synchronous mode with CPU masters, on a long sequence,
// so forward/backward kernels and the scalar attention take most of a step.
#include <memory>
#include <optional>

#include "bench.h"
#include "core/allocator.h"
#include "mem/hierarchical_memory.h"
#include "train/kernels.h"
#include "train/trainer.h"

namespace angelptm::perfbench {
namespace {

constexpr size_t kBatch = 8;
constexpr size_t kPageBytes = 64 * 1024;
constexpr size_t kTeacherHidden = 64;
constexpr double kLearningRate = 5e-4;

train::TransformerConfig ModelConfig() {
  train::TransformerConfig config;
  config.seq_len = 256;
  config.d_model = 128;
  config.num_heads = 4;
  config.d_ffn = 512;
  config.num_blocks = 4;
  // 256 outputs average out each seed's initial output offset, so the
  // validation loss after 12 steps is steady across seeds.
  config.out_dim = 256;
  return config;
}

int TimedSteps(const RunConfig& config) { return config.smoke ? 2 : 12; }
constexpr int kSetupRepeats = 5;

/// The CPU tier holds exactly what the direct updater allocates per layer
/// (fp32 params + Adam m, v; fp16 p'16 and g'16), plus a quarter for
/// page-packing holes.
mem::HierarchicalMemoryOptions MemoryOptions(
    const train::LayeredModel& model) {
  uint64_t bytes = 0;
  for (int l = 0; l < model.num_layers(); ++l) {
    const uint64_t count = model.LayerParamCount(l);
    bytes += 3 * PageRound(4 * count, kPageBytes) +
             2 * PageRound(2 * count, kPageBytes);
  }
  mem::HierarchicalMemoryOptions options;
  options.page_bytes = kPageBytes;
  options.cpu_capacity_bytes = PageRound(bytes + bytes / 4, kPageBytes);
  return options;
}

train::TrainerOptions Options(const RunConfig& config) {
  train::TrainerOptions options;
  options.optimizer.learning_rate = kLearningRate;
  options.batch_size = kBatch;
  options.lock_free = false;
  options.master_device = mem::DeviceKind::kCpu;
  options.seed = config.seed;
  return options;
}

/// The direct trainer and the memory it allocates from.
struct DirectSetup {
  std::unique_ptr<mem::HierarchicalMemory> memory;
  std::unique_ptr<core::Allocator> allocator;
  std::unique_ptr<train::Trainer> trainer;
};

util::Result<DirectSetup> SetUp(const train::LayeredModel& model,
                                const RunConfig& config) {
  DirectSetup setup;
  setup.memory =
      std::make_unique<mem::HierarchicalMemory>(MemoryOptions(model));
  setup.allocator = std::make_unique<core::Allocator>(setup.memory.get());
  setup.trainer = std::make_unique<train::Trainer>(setup.allocator.get(),
                                                   &model, Options(config));
  ANGEL_RETURN_IF_ERROR(setup.trainer->Init());
  return setup;
}

/// Trainer::Step plus the per-step UpdateOnce, call for call, each call
/// into the updater or the model timed from outside.
util::Result<double> TracedStep(core::LockFreeUpdater* updater,
                                const train::LayeredModel& model,
                                const std::vector<float>& x,
                                const std::vector<float>& y,
                                PhaseClock* clock) {
  const int num_layers = model.num_layers();
  std::vector<std::vector<float>> params(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    Timed timed(clock, Phase::kFetch);
    ANGEL_RETURN_IF_ERROR(updater->FetchParams(l, &params[l]));
  }
  std::vector<train::LayerStash> stash(num_layers);
  std::vector<float> acts = x;
  for (int l = 0; l < num_layers; ++l) {
    std::vector<float> next;
    {
      Timed timed(clock, Phase::kForward);
      model.Forward(l, params[l].data(), acts, kBatch, &next, &stash[l]);
    }
    acts = std::move(next);
  }
  std::vector<float> grad(acts.size());
  double loss = 0.0;
  {
    Timed timed(clock, Phase::kForward);
    loss = train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  }
  std::vector<std::vector<float>> layer_grads(num_layers);
  for (int l = num_layers - 1; l >= 0; --l) {
    std::vector<float> grad_in;
    {
      Timed timed(clock, Phase::kBackward);
      model.Backward(l, params[l].data(), stash[l], grad, kBatch, &grad_in,
                     &layer_grads[l]);
    }
    grad = std::move(grad_in);
  }
  for (int l = num_layers - 1; l >= 0; --l) {
    Timed timed(clock, Phase::kOffload);
    ANGEL_RETURN_IF_ERROR(updater->OffloadGrads(l, layer_grads[l]));
  }
  {
    Timed timed(clock, Phase::kUpdateOnce);
    ANGEL_RETURN_IF_ERROR(updater->UpdateOnce());
  }
  return loss;
}

}  // namespace

util::Status DirectRep(const RunConfig& config, int /*rep*/, Rep* out,
                       Checks* checks) {
  const train::TinyTransformer model(ModelConfig());
  const train::SyntheticRegression dataset(
      model.InputSize(), kTeacherHidden, model.OutputSize(), config.seed);
  const int steps = TimedSteps(config);
  out->steps = steps;

  // Set-up takes ~50 ms next to seconds of training: repeat it and keep the
  // median, so one scheduling hiccup does not move setup_s.
  std::optional<DirectSetup> setup;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();  // The previous one goes first, its trainer before its memory.
    const auto start = std::chrono::steady_clock::now();
    ANGEL_ASSIGN_OR_RETURN(DirectSetup fresh, SetUp(model, config));
    setup_s.push_back(SecondsSince(start));
    setup.emplace(std::move(fresh));
  }
  out->setup_s = Median(setup_s);

  ANGEL_ASSIGN_OR_RETURN(const train::TrainReport report,
                         setup->trainer->Train(dataset, steps));
  out->train_s = report.wall_seconds;
  out->samples = double(steps * kBatch);
  out->first_loss = report.losses.at(0);
  out->valid_loss = report.validation_loss;
  out->losses = report.losses;
  CheckLosses(*out, checks);
  checks->ExpectOk(setup->trainer->updater()->status(), "updater status");
  return util::Status::OK();
}

util::Status DirectTraced(const RunConfig& config, const Rep& reference,
                          TracedResult* out, Checks* checks) {
  const train::TinyTransformer model(ModelConfig());
  const train::SyntheticRegression dataset(
      model.InputSize(), kTeacherHidden, model.OutputSize(), config.seed);
  ANGEL_ASSIGN_OR_RETURN(DirectSetup setup, SetUp(model, config));
  core::LockFreeUpdater* updater = setup.trainer->updater();
  util::Rng rng = DataCursor(model, config.seed);
  std::vector<float> x, y;
  PhaseClock clock;

  const core::LockFreeUpdater::Stats before = updater->Snapshot();
  const int steps = TimedSteps(config);
  out->steps += steps;
  std::vector<double> losses;
  ANGEL_RETURN_IF_ERROR(obs::StartTracing(config.scratch + "/trace.json"));
  const auto loop_start = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) {
    dataset.GenBatch(&rng, kBatch, &x, &y);
    Timed timed(&clock, Phase::kStep);
    ANGEL_ASSIGN_OR_RETURN(const double loss,
                           TracedStep(updater, model, x, y, &clock));
    losses.push_back(loss);
  }
  const double loop_s = SecondsSince(loop_start);
  CheckNoDroppedSpans(checks);
  ANGEL_RETURN_IF_ERROR(obs::StopTracing());
  const core::LockFreeUpdater::Stats after = updater->Snapshot();

  // Synchronous training is deterministic: the replayed loop must train
  // on the same batches and reproduce Train()'s losses bit for bit.
  checks->Expect(losses == reference.losses,
                 "traced losses differ from Train()'s");
  checks->ExpectOk(updater->status(), "traced updater status");

  Metrics& m = out->metrics;
  const double n = steps;
  const double fwd = clock.ms(Phase::kForward) / n;
  const double bwd = clock.ms(Phase::kBackward) / n;
  m.Set("train.fwd_ms", fwd);
  m.Set("train.bwd_ms", bwd);
  m.Set("train.bare_step_ms", BareStepMs(model, kBatch, config.seed, 2));
  m.Set("train.model_gflops",
        TransformerStepFlops(ModelConfig(), kBatch) / ((fwd + bwd) * 1e6));
  m.Set("updater.fetch_ms", clock.ms(Phase::kFetch) / n);
  m.Set("updater.offload_ms", clock.ms(Phase::kOffload) / n);
  m.Set("updater.update_once_ms", clock.ms(Phase::kUpdateOnce) / n);
  const uint64_t updates = after.updates_applied - before.updates_applied;
  m.Set("updater.updates_per_step", updates / n);
  m.Set("updater.staleness_mean",
        updates ? double(after.grad_batches_applied -
                         before.grad_batches_applied) /
                      updates
                : 0.0);
  m.Set("updater.backpressure_waits",
        double(after.backpressure_waits - before.backpressure_waits));
  m.Set("mem.cpu_peak_mb", PeakBytes(setup.memory->cpu_arena()) / kMB);
  m.Set("obs.trace_overhead",
        reference.samples_per_s() / (n * kBatch / loop_s));
  m.Set("trace.step_ms", clock.ms(Phase::kStep) / n);
  m.Set("trace.coverage", clock.LayerMs() / clock.ms(Phase::kStep));
  return util::Status::OK();
}

}  // namespace angelptm::perfbench
