#ifndef ANGELPTM_CORE_OPTIMIZER_OPTIMIZER_H_
#define ANGELPTM_CORE_OPTIMIZER_OPTIMIZER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/adam.h"
#include "core/dtype.h"
#include "util/status.h"

namespace angelptm::core {

/// Hyper-parameters for every registered update rule. A single flat config
/// (the Multiverso `UpdateOption` shape, SNIPPETS.md §2) keeps the
/// checkpoint/Trainer/Engine plumbing rule-agnostic; fields a rule does not
/// use are ignored by it.
struct OptimizerConfig {
  /// Registry key: "adam", "sgdm", "lamb" or "adafactor" (or a rule a test
  /// registered itself). Unknown rules fail Optimizer::Create.
  std::string rule = "adam";

  double learning_rate = 1e-3;
  /// First-moment decay (Adam/LAMB); the momentum coefficient for sgdm.
  double beta1 = 0.9;
  /// Second-moment decay (Adam/LAMB); the factored-stat decay for adafactor.
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;

  /// LAMB: the layer-wise trust ratio ||p|| / ||update|| is clamped into
  /// (0, lamb_trust_clamp] before scaling the learning rate.
  double lamb_trust_clamp = 10.0;

  /// Adafactor: a flat parameter vector is viewed as a rows x cols grid
  /// (ragged last row) for the factored second moment; the master state is
  /// rows + cols floats instead of Adam's 2 x count.
  size_t adafactor_cols = 128;
};

/// Declares one master-state slot an optimizer needs per layer: Adam needs
/// {m, v} of `count` fp32 each, sgdm a single {m}, adafactor a factored
/// {row, col} pair much smaller than the parameter count. The updater
/// allocates (and the checkpoint serializes) exactly what the layout
/// declares instead of assuming {m32, v32}.
struct SlotSpec {
  std::string name;
  size_t count = 0;
  DType dtype = DType::kFp32;
};

/// A mutable view of one allocated slot during Update (fp32 staging, same
/// convention as the params/grads pointers).
struct SlotView {
  float* data = nullptr;
  size_t count = 0;
};

/// A pluggable update rule (ROADMAP: "Pluggable optimizers"). Implementations
/// are stateless beyond their config — all mutable state lives in the slots —
/// so one instance may be shared across layers and threads (Update is const
/// and layers never share slots).
///
/// Contract:
///  * SlotLayout(count) is a pure function of `count` and the config.
///  * Update receives `slots` in SlotLayout order, each sized per its spec.
///  * `step` is 1-based (the first update of a layer passes step == 1) and
///    drives bias correction where the rule has any.
///  * Update must be deterministic for a fixed input regardless of the
///    compute-pool thread count (fixed-grain chunked reductions, not
///    atomics), so lock-free training stays reproducible.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Registry key this instance was created under ("adam", ...).
  virtual const std::string& name() const = 0;

  /// Master-state slots required for a layer of `param_count` elements.
  virtual std::vector<SlotSpec> SlotLayout(size_t param_count) const = 0;

  /// Applies one step to `params` given averaged `grads` (both `count`
  /// elements) and the layer's slots.
  [[nodiscard]] virtual util::Status Update(
      float* params, const float* grads, size_t count,
      const std::vector<SlotView>& slots, long step) const = 0;

  /// Factory: looks `config.rule` up in the registry (built-ins are
  /// registered on first use). Unknown rules return NotFound naming the
  /// registered ones.
  [[nodiscard]] static util::Result<std::unique_ptr<Optimizer>> Create(
      const OptimizerConfig& config);
};

using OptimizerFactory =
    std::unique_ptr<Optimizer> (*)(const OptimizerConfig& config);

/// Registers `factory` under `rule`, replacing any previous registration
/// (tests use this to shadow a rule). Returns true so implementations can
/// register from a static initializer if they want; built-ins register
/// explicitly via EnsureBuiltinOptimizersRegistered to survive static-library
/// dead stripping. Not thread-safe against concurrent Create — register at
/// startup.
bool RegisterOptimizer(const std::string& rule, OptimizerFactory factory);

/// Registry keys in sorted order (for error messages and docs).
std::vector<std::string> RegisteredOptimizers();

/// Idempotently registers the built-in rules (adam, sgdm, lamb, adafactor).
/// Called by Optimizer::Create; exposed for tools that list rules first.
void EnsureBuiltinOptimizersRegistered();

/// Back-compat shim for the pre-redesign `AdamConfig` knobs that still live
/// on dist::ShardedDpOptions: any legacy field that differs from its
/// AdamConfig default overrides the matching OptimizerConfig field. Callers
/// that never touch the legacy struct get `config` unchanged.
OptimizerConfig ResolveLegacyAdam(OptimizerConfig config,
                                  const AdamConfig& legacy);

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_OPTIMIZER_OPTIMIZER_H_
