#ifndef ANGELPTM_TRAIN_ENGINE_TRAINER_H_
#define ANGELPTM_TRAIN_ENGINE_TRAINER_H_

#include "core/engine.h"
#include "train/trainer.h"

namespace angelptm::train {

/// Options of the full-system (paged) backend of train::Trainer: every step
/// goes through the paged Engine — parameters staged into the fast tier on
/// the unified schedule, boundary activations stashed on hierarchical
/// memory and interiors recomputed in backward (§4.2), gradients offloaded
/// to the (optionally lock-free) updater. Loss scaling, gradient
/// accumulation and bf16 compute are direct-backend features.
struct EngineTrainerOptions : TrainLoopOptions {
  /// Memory tiers, update rule, lock-free mode and master-state tier.
  core::EngineOptions engine;
  /// Stash boundary activations on the hierarchical memory and recompute
  /// layer interiors in backward (§4.2). When false the caller-side stash
  /// stays in host vectors like a conventional framework.
  bool offload_activations = true;
};

/// The paged training loop is a Trainer built from EngineTrainerOptions.
using EngineTrainer = Trainer;

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_ENGINE_TRAINER_H_
