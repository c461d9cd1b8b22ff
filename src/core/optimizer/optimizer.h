#ifndef ANGELPTM_CORE_OPTIMIZER_OPTIMIZER_H_
#define ANGELPTM_CORE_OPTIMIZER_OPTIMIZER_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adam.h"
#include "core/dtype.h"
#include "core/tensor.h"
#include "util/status.h"

namespace angelptm::core {

/// Hyper-parameters for every update rule. A single flat config
/// (the Multiverso `UpdateOption` shape, SNIPPETS.md §2) keeps the
/// checkpoint/Trainer/Engine plumbing rule-agnostic; fields a rule does not
/// use are ignored by it.
struct OptimizerConfig {
  /// "adam", "sgdm", "lamb" or "adafactor"; any other name fails
  /// Optimizer::Create.
  std::string rule = "adam";

  double learning_rate = 1e-3;
  /// First-moment decay (Adam/LAMB); the momentum coefficient for sgdm.
  double beta1 = 0.9;
  /// Second-moment decay (Adam/LAMB); the factored-stat decay for adafactor.
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;

  /// Adafactor: a flat parameter vector is viewed as a rows x cols grid
  /// (ragged last row) for the factored second moment; the master state is
  /// rows + cols floats instead of Adam's 2 x count.
  size_t adafactor_cols = 128;
};

/// Declares one master-state slot an optimizer needs per layer: Adam needs
/// {m, v} of `count` fp32 each, sgdm a single {m}, adafactor a factored
/// {row, col} pair much smaller than the parameter count. The updater
/// and ZeRO allocate (and the checkpoint serializes) exactly what the
/// layout declares instead of assuming {m32, v32}. Every slot is fp32.
struct SlotSpec {
  std::string name;
  size_t count = 0;
  /// Always fp32: the updater and ZeRO allocate slots as fp32 without
  /// reading it.
  DType dtype = DType::kFp32;
};

/// A mutable view of one allocated slot during Update (fp32 staging, same
/// convention as the params/grads pointers).
struct SlotView {
  float* data = nullptr;
  size_t count = 0;
};

/// An update rule, one of a closed set of four. Implementations
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
///  * SplitsBitwise() is a property of the rule, not an option: true
///    promises that Update over any contiguous split of [0, count) (params,
///    grads and every slot cut at the same element boundaries, each piece
///    called with the same `step`) is bitwise equal to one call over the
///    whole range. Such a rule declares only fp32 slots of `count`
///    elements. ApplyRule below then streams it over page spans in place
///    (DESIGN.md §13.3); a rule with a layer-wide reduction says false and
///    is handed the whole layer in one call.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// The rule name this instance was created under ("adam", ...).
  virtual const std::string& name() const = 0;

  /// Master-state slots required for a layer of `param_count` elements.
  virtual std::vector<SlotSpec> SlotLayout(size_t param_count) const = 0;

  /// Whether any contiguous split of one Update is bitwise equal to the
  /// whole call (see the contract above). Elementwise rules say true.
  virtual bool SplitsBitwise() const = 0;

  /// Applies one step to `params` given averaged `grads` (both `count`
  /// elements) and the layer's slots.
  [[nodiscard]] virtual util::Status Update(
      float* params, const float* grads, size_t count,
      const std::vector<SlotView>& slots, long step) const = 0;

  /// Factory over the four rules. Any other `config.rule` returns
  /// NotFound naming them.
  [[nodiscard]] static util::Result<std::unique_ptr<Optimizer>> Create(
      const OptimizerConfig& config);
};

/// The rule names Create accepts, in sorted order (for error messages and
/// docs).
std::vector<std::string> RegisteredOptimizers();

/// A memory-resident tensor's page spans as element ranges: span i holds
/// elements [starts[i], starts[i + 1]) at data[i]. Built once per pass (a
/// few dozen entries per layer), so chunked loops find their pointers
/// without walking pages again.
class SpanIndex {
 public:
  [[nodiscard]] util::Status Build(const Tensor& tensor);

  /// Pointer to element `e`; clamps `*n` to the elements that follow it
  /// on the same span.
  template <typename T>
  T* At(size_t e, size_t* n) const {
    const size_t i =
        size_t(std::upper_bound(starts_.begin(), starts_.end(), e) -
               starts_.begin()) -
        1;
    *n = std::min(*n, starts_[i + 1] - e);
    return reinterpret_cast<T*>(data_[i]) + (e - starts_[i]);
  }

 private:
  std::vector<size_t> starts_;
  std::vector<std::byte*> data_;
};

/// Writes the averaged fp32 gradient of layer elements [lo, lo + n) into
/// `out`. ApplyRule calls it from compute-pool workers on disjoint ranges
/// at once, so it must be safe to call concurrently.
using GradientFn = std::function<void(size_t lo, size_t n, float* out)>;

/// Runs `rule` once, at `step`, on a layer's memory-resident fp32 masters:
/// `p32` and `slots`, one tensor per entry of the rule's SlotLayout for
/// p32's element count, in that order. `grads` supplies the gradient.
/// When the rule splits bitwise the update runs in place over the
/// masters' page spans on the compute pool, a stack chunk of gradient at
/// a time, with no whole-layer copy; otherwise p32, the slots and the
/// gradient pass through whole-layer vectors and one Update call. The
/// lock-free updater runs it on each layer's masters and ZeRO on each
/// rank's shard (DESIGN.md §13.3).
[[nodiscard]] util::Status ApplyRule(const Optimizer& rule, Tensor* p32,
                                     const std::vector<Tensor*>& slots,
                                     long step, const GradientFn& grads);

/// Back-compat shim for the pre-redesign `AdamConfig` knobs that still live
/// on dist::ShardedDpOptions: any legacy field that differs from its
/// AdamConfig default overrides the matching OptimizerConfig field. Callers
/// that never touch the legacy struct get `config` unchanged.
OptimizerConfig ResolveLegacyAdam(OptimizerConfig config,
                                  const AdamConfig& legacy);

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_OPTIMIZER_OPTIMIZER_H_
