#include "train/trainer.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "train/engine_trainer.h"
#include "train/kernels.h"
#include "util/half.h"
#include "util/logging.h"

namespace angelptm::train {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Rounds every element through bfloat16 (the paper's compute precision).
void RoundToBf16(std::vector<float>* values) {
  for (float& v : *values) {
    v = util::BFloat16BitsToFloat(util::FloatToBFloat16Bits(v));
  }
}

/// The paged backend's loop options in TrainerOptions terms; the
/// direct-only features stay off.
TrainerOptions LoopOptions(const EngineTrainerOptions& paged) {
  TrainerOptions options;
  static_cast<TrainLoopOptions&>(options) = paged;
  options.lock_free = paged.engine.lock_free;
  return options;
}

}  // namespace

Trainer::Trainer(core::Allocator* allocator, const LayeredModel* model,
                 const TrainerOptions& options)
    : allocator_(allocator),
      model_(model),
      options_(options),
      scaler_(options.loss_scaler),
      rng_(options.seed) {}

Trainer::Trainer(const LayeredModel* model,
                 const EngineTrainerOptions& options)
    : Trainer(nullptr, model, LoopOptions(options)) {
  engine_options_ = options.engine;
  offload_activations_ = options.offload_activations;
}

util::Status Trainer::BuildState(util::Rng* rng) {
  if (engine_options_.has_value()) {
    ANGEL_ASSIGN_OR_RETURN(engine_, core::Engine::Create(*engine_options_));
  } else {
    core::LockFreeUpdater::Options updater_options;
    updater_options.optimizer = options_.optimizer;
    updater_options.master_device = options_.master_device;
    updater_ = std::make_unique<core::LockFreeUpdater>(allocator_,
                                                       updater_options);
  }
  for (int l = 0; l < model_->num_layers(); ++l) {
    const std::vector<float> params = model_->InitLayerParams(l, rng);
    ANGEL_RETURN_IF_ERROR((engine_ != nullptr ? engine_->RegisterLayer(params)
                                              : updater_->AddLayer(params))
                              .status());
  }
  return util::Status::OK();
}

util::Status Trainer::Init() {
  ANGEL_RETURN_IF_ERROR(BuildState(&rng_));
  if (!options_.checkpoint_dir.empty()) {
    core::CheckpointManager::Options manager_options;
    manager_options.dir = options_.checkpoint_dir;
    manager_options.keep_last = options_.checkpoint_keep_last;
    ckpt_manager_ = std::make_unique<core::CheckpointManager>(manager_options);
    ANGEL_RETURN_IF_ERROR(ckpt_manager_->Init());
  }
  return util::Status::OK();
}

core::TrainProgress Trainer::CurrentProgress() const {
  core::TrainProgress progress;
  progress.global_step = global_step_;
  progress.rng_state = rng_.GetState();
  const LossScaler::State scaler = scaler_.GetState();
  progress.loss_scale = scaler.scale;
  progress.scaler_good_steps = scaler.good_steps;
  progress.scaler_overflows = scaler.overflows;
  progress.scaler_growths = scaler.growths;
  return progress;
}

void Trainer::RestoreProgress(const core::TrainProgress& progress) {
  global_step_ = progress.global_step;
  rng_.SetState(progress.rng_state);
  LossScaler::State scaler;
  scaler.scale = progress.loss_scale;
  scaler.good_steps = progress.scaler_good_steps;
  scaler.overflows = progress.scaler_overflows;
  scaler.growths = progress.scaler_growths;
  scaler_.SetState(scaler);
}

util::Result<bool> Trainer::TryResume(const SyntheticRegression* /*dataset*/) {
  if (updater() == nullptr) {
    return util::Status::FailedPrecondition("Init() not called");
  }
  if (ckpt_manager_ == nullptr) return false;
  auto latest = ckpt_manager_->LoadLatest(updater());
  if (!latest.ok()) {
    if (latest.status().IsNotFound()) return false;  // Fresh start.
    return latest.status();
  }
  RestoreProgress(*latest);
  return true;
}

util::Status Trainer::Recover(const util::Status& cause) {
  if (ckpt_manager_ == nullptr || options_.max_recoveries <= 0) return cause;
  // Only a poisoned updater is recoverable: it means the optimizer state is
  // suspect but a checkpoint of it is not. Anything else (protocol misuse,
  // bad arguments) would just fail again.
  if (updater() == nullptr || updater()->status().ok()) return cause;
  if (recoveries_ >= uint64_t(options_.max_recoveries)) {
    return util::Status(cause.code(),
                        cause.message() + " (recovery budget of " +
                            std::to_string(options_.max_recoveries) +
                            " exhausted)");
  }
  recoveries_ += 1;
  ANGEL_LOG(Warning) << "recovering from poisoned updater (attempt "
                     << recoveries_ << "/" << options_.max_recoveries
                     << "): " << cause.ToString();

  // No persist may still be reading the old masters' frames.
  FlushCheckpoints();
  // Tear down the dead state; the destructors stop the threads and release
  // every tensor so the rebuild fits in the same memory budget. The paged
  // backend drops the whole engine: its memory hierarchy and copy engine
  // may hold state fed by the failed device, and the fresh engine re-traces
  // its first step to rebuild the schedule.
  updater_.reset();
  engine_.reset();
  // The rebuild's initial parameters are placeholders (the restore
  // overwrites them); a scratch RNG keeps rng_ — the data cursor — intact
  // until RestoreProgress rewinds it.
  util::Rng scratch_rng(options_.seed ^ 0xC0FFEEull);
  ANGEL_RETURN_IF_ERROR(BuildState(&scratch_rng));
  ANGEL_ASSIGN_OR_RETURN(const core::TrainProgress progress,
                         ckpt_manager_->LoadLatest(updater()));
  RestoreProgress(progress);
  return util::Status::OK();
}

util::Result<double> Trainer::DirectStep(const std::vector<float>& x,
                                         const std::vector<float>& y,
                                         bool update) {
  const int num_layers = model_->num_layers();
  const size_t batch = options_.batch_size;
  const bool bf16 = options_.compute_precision == ComputePrecision::kBf16;

  // Algorithm 2 line 20: fetch the buffered fp16 parameters.
  std::vector<std::vector<float>> params(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    ANGEL_RETURN_IF_ERROR(updater_->FetchParams(l, &params[l]));
    if (bf16) RoundToBf16(&params[l]);
  }

  // Forward (line 21).
  std::vector<LayerStash> stash(num_layers);
  std::vector<float> acts = x;
  const uint64_t fwd_start = NowUs();
  {
    ANGEL_SPAN("train", "forward");
    for (int l = 0; l < num_layers; ++l) {
      std::vector<float> next;
      model_->Forward(l, params[l].data(), acts, batch, &next, &stash[l]);
      if (bf16) RoundToBf16(&next);  // Layer boundaries in bf16.
      acts = std::move(next);
    }
  }
  fwd_us_.Record(NowUs() - fwd_start);

  std::vector<float> grad(acts.size());
  const double loss = MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  const double scale = options_.use_loss_scaling ? scaler_.scale() : 1.0;
  if (scale != 1.0) {
    for (float& g : grad) g = float(g * scale);
  }

  // Backward (line 23); gradients offload (line 24) only if none overflow.
  std::vector<std::vector<float>> layer_grads(num_layers);
  bool overflowed = false;
  const uint64_t bwd_start = NowUs();
  {
    ANGEL_SPAN("train", "backward");
    for (int l = num_layers - 1; l >= 0; --l) {
      std::vector<float> grad_in;
      model_->Backward(l, params[l].data(), stash[l], grad, batch, &grad_in,
                       &layer_grads[l]);
      if (bf16) {
        RoundToBf16(&grad_in);
        RoundToBf16(&layer_grads[l]);
      }
      grad = std::move(grad_in);
      if (options_.use_loss_scaling &&
          LossScaler::HasNonFinite(layer_grads[l])) {
        overflowed = true;
        break;
      }
    }
  }
  bwd_us_.Record(NowUs() - bwd_start);
  // A skipped (overflowed) step offloads nothing but still counts toward
  // the accumulation cadence.
  const bool apply = !options_.use_loss_scaling || scaler_.Update(overflowed);
  if (apply && options_.use_loss_scaling) {
    const float inv = float(1.0 / scale);
    for (auto& layer_grad : layer_grads) {
      for (float& g : layer_grad) g *= inv;
    }
  }
  for (int l = num_layers - 1; apply && l >= 0; --l) {
    ANGEL_RETURN_IF_ERROR(
        updater_->OffloadGrads(l, std::move(layer_grads[l])));
  }
  if (update) {
    ANGEL_SPAN("train", "update_once");
    const uint64_t opt_start = NowUs();
    ANGEL_RETURN_IF_ERROR(updater_->UpdateOnce());
    opt_us_.Record(NowUs() - opt_start);
  }
  return loss;
}

util::Result<double> Trainer::PagedStep(const std::vector<float>& x,
                                        const std::vector<float>& y) {
  const int num_layers = model_->num_layers();
  const size_t batch = options_.batch_size;
  ANGEL_RETURN_IF_ERROR(engine_->BeginStep());

  // Forward. With activation offloading only the layer *inputs* (the
  // boundaries) survive, on the hierarchical memory; otherwise keep the
  // full per-layer stash in host vectors.
  std::vector<LayerStash> stash(num_layers);
  std::vector<float> acts = x;
  const uint64_t fwd_start = NowUs();
  {
    ANGEL_SPAN("train", "forward");
    for (int l = 0; l < num_layers; ++l) {
      if (offload_activations_) {
        ANGEL_RETURN_IF_ERROR(engine_->StashActivation(l, acts));
      }
      ANGEL_ASSIGN_OR_RETURN(const std::vector<float> params,
                             engine_->UseLayerParams(l));
      std::vector<float> next;
      model_->Forward(l, params.data(), acts, batch, &next,
                      offload_activations_ ? nullptr : &stash[l]);
      acts = std::move(next);
    }
  }
  fwd_us_.Record(NowUs() - fwd_start);

  std::vector<float> grad(acts.size());
  const double loss =
      MseLoss(acts.data(), y.data(), grad.data(), acts.size());

  // Backward: fetch boundaries and recompute interiors when offloading.
  const uint64_t bwd_start = NowUs();
  {
    ANGEL_SPAN("train", "backward");
    for (int l = num_layers - 1; l >= 0; --l) {
      ANGEL_ASSIGN_OR_RETURN(const std::vector<float> params,
                             engine_->UseLayerParams(l));
      if (offload_activations_) {
        ANGEL_ASSIGN_OR_RETURN(const std::vector<float> boundary,
                               engine_->FetchActivation(l));
        std::vector<float> recomputed;
        model_->Forward(l, params.data(), boundary, batch, &recomputed,
                        &stash[l]);
      }
      std::vector<float> grad_in, grad_params;
      model_->Backward(l, params.data(), stash[l], grad, batch, &grad_in,
                       &grad_params);
      ANGEL_RETURN_IF_ERROR(engine_->PushGrads(l, std::move(grad_params)));
      grad = std::move(grad_in);
    }
  }
  bwd_us_.Record(NowUs() - bwd_start);
  // EndStep runs the drain and (in synchronous mode) the optimizer pass.
  const uint64_t opt_start = NowUs();
  ANGEL_RETURN_IF_ERROR(engine_->EndStep());
  opt_us_.Record(NowUs() - opt_start);
  return loss;
}

util::Status Trainer::TrainRange(const SyntheticRegression& dataset,
                                 int64_t base_step, int64_t target_step,
                                 TrainReport* report) {
  const util::Status stepped =
      RunSteps(dataset, base_step, target_step, report);
  // The last checkpoint's persist must land before the range ends: the
  // caller may recover, load, validate or tear the state down next.
  FlushCheckpoints();
  return stepped;
}

util::Status Trainer::RunSteps(const SyntheticRegression& dataset,
                               int64_t base_step, int64_t target_step,
                               TrainReport* report) {
  core::LockFreeUpdater* updater = this->updater();
  if (options_.lock_free) updater->Start();
  std::vector<float> x, y;
  while (global_step_ < target_step) {
    ANGEL_SPAN("train", "step");
    dataset.GenBatch(&rng_, options_.batch_size, &x, &y);
    // Synchronous direct training updates once per accumulation window.
    const bool update = !options_.lock_free &&
                        (global_step_ + 1 - base_step) %
                                std::max(1, options_.grad_accumulation) ==
                            0;
    ANGEL_ASSIGN_OR_RETURN(const double loss,
                           engine_ != nullptr ? PagedStep(x, y)
                                              : DirectStep(x, y, update));
    global_step_ += 1;
    report->losses.push_back(loss);
    if (options_.lock_free) {
      report->telemetry.max_pending_batches =
          std::max(report->telemetry.max_pending_batches,
                   updater->Snapshot().pending_grad_batches);
    }
    if (ckpt_manager_ != nullptr && options_.checkpoint_every_n_steps > 0 &&
        global_step_ % options_.checkpoint_every_n_steps == 0) {
      // Only the cut runs here, with the updater threads still running
      // (per-layer quiesce); the file is written by the manager's
      // background writer while training continues. A failed save is a
      // warning, not a dead run — the previous rotated checkpoint still
      // covers recovery. The error may be an earlier persist's.
      const util::Status saved =
          ckpt_manager_->Save(updater, CurrentProgress());
      if (!saved.ok()) {
        ANGEL_LOG(Warning) << "checkpoint failed: " << saved.ToString();
      }
    }
  }
  if (!options_.lock_free) {
    // Flush a trailing partial accumulation window (the paged backend's
    // EndStep already updated, so nothing is pending there).
    return updater->UpdateOnce();
  }
  const util::Status drained = updater->DrainUpdates(
      std::chrono::milliseconds(options_.drain_deadline_ms));
  // Join the threads even when the drain failed. The paged backend's
  // BeginStep, or the next TrainRange, starts them again.
  updater->Stop();
  return drained;
}

void Trainer::FlushCheckpoints() {
  if (ckpt_manager_ == nullptr) return;
  const util::Status flushed = ckpt_manager_->Flush();
  if (!flushed.ok()) {
    ANGEL_LOG(Warning) << "checkpoint failed: " << flushed.ToString();
  }
}

util::Result<TrainReport> Trainer::Train(const SyntheticRegression& dataset,
                                         int steps) {
  if (updater() == nullptr) {
    return util::Status::FailedPrecondition("Init() not called");
  }
  TrainReport report;
  for (obs::HistogramData* phase : {&fwd_us_, &bwd_us_, &opt_us_}) {
    *phase = obs::HistogramData();
  }
  const int64_t base_step = global_step_;
  const int64_t target_step = base_step + steps;
  const uint64_t recoveries_at_entry = recoveries_;
  const double start = NowSeconds();

  // The recovery loop (§3.1): poisoned state inside the range is torn down
  // and rebuilt from the latest valid checkpoint, the step counter and
  // data cursor rewind with it, and the range re-runs from there — bounded
  // by max_recoveries.
  for (;;) {
    const util::Status ran = TrainRange(dataset, base_step, target_step,
                                        &report);
    if (ran.ok()) break;
    ANGEL_RETURN_IF_ERROR(Recover(ran));
    // Steps past the restored checkpoint will re-run: drop their losses.
    const int64_t kept = std::max<int64_t>(global_step_ - base_step, 0);
    if (int64_t(report.losses.size()) > kept) report.losses.resize(kept);
  }

  report.wall_seconds = NowSeconds() - start;
  report.steps_per_second =
      report.wall_seconds > 0 ? steps / report.wall_seconds : 0.0;
  report.final_train_loss =
      report.losses.empty() ? 0.0 : report.losses.back();
  report.overflow_steps_skipped = scaler_.steps_skipped();
  report.final_loss_scale =
      options_.use_loss_scaling ? scaler_.scale() : 1.0;
  ANGEL_ASSIGN_OR_RETURN(report.validation_loss, Validate(dataset, 8));

  TelemetrySnapshot& telemetry = report.telemetry;
  telemetry.fwd_us = fwd_us_;
  telemetry.bwd_us = bwd_us_;
  telemetry.opt_us = opt_us_;
  telemetry.updater = updater()->Snapshot();
  telemetry.recoveries = recoveries_ - recoveries_at_entry;
  if (ckpt_manager_ != nullptr) {
    telemetry.checkpoint = ckpt_manager_->Snapshot();
    telemetry.has_checkpoint_manager = true;
  }
  mem::HierarchicalMemory* memory =
      engine_ != nullptr ? engine_->memory() : allocator_->memory();
  telemetry.memory = memory->Snapshot();
  if (memory->ssd_enabled()) {
    telemetry.ssd = memory->ssd()->Snapshot();
    telemetry.has_ssd = true;
  }
  if (engine_ != nullptr) {
    telemetry.copy = engine_->copy_engine()->Snapshot();
    telemetry.has_copy_engine = true;
  }
  return report;
}

util::Result<double> Trainer::Validate(const SyntheticRegression& dataset,
                                       int batches) {
  if (updater() == nullptr) {
    return util::Status::FailedPrecondition("Init() not called");
  }
  ANGEL_SPAN("train", "validate");
  const bool bf16 = options_.compute_precision == ComputePrecision::kBf16;
  util::Rng validation_rng(options_.seed ^ 0x5EEDF00Dull);
  // Layers outermost, so each layer's masters are read once per call; every
  // batch keeps its activations between layers.
  std::vector<std::vector<float>> acts(batches), targets(batches);
  for (int i = 0; i < batches; ++i) {
    dataset.GenBatch(&validation_rng, options_.batch_size, &acts[i],
                     &targets[i]);
  }
  std::vector<float> params;
  for (int l = 0; l < model_->num_layers(); ++l) {
    ANGEL_RETURN_IF_ERROR(updater()->ReadMasterParams(l, &params));
    if (bf16) RoundToBf16(&params);
    for (std::vector<float>& batch_acts : acts) {
      std::vector<float> next;
      model_->Forward(l, params.data(), batch_acts, options_.batch_size,
                      &next, nullptr);
      if (bf16) RoundToBf16(&next);
      batch_acts = std::move(next);
    }
  }
  double total = 0.0;
  for (int i = 0; i < batches; ++i) {
    std::vector<float> grad(acts[i].size());
    total += MseLoss(acts[i].data(), targets[i].data(), grad.data(),
                     acts[i].size());
  }
  return total / batches;
}

}  // namespace angelptm::train
