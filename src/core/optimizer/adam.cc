#include "core/adam.h"
#include "core/optimizer/optimizer.h"

namespace angelptm::core {
namespace {

/// The default rule: a thin wrapper over the SIMD-dispatched AdamUpdate in
/// core/adam.h, so Optimizer::Create's Adam is bitwise-identical to the
/// historic hard-wired path (kernel_golden and the recovery bitwise-resume
/// tests pin this down).
class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(const OptimizerConfig& config) {
    config_.learning_rate = config.learning_rate;
    config_.beta1 = config.beta1;
    config_.beta2 = config.beta2;
    config_.epsilon = config.epsilon;
    config_.weight_decay = config.weight_decay;
  }

  const std::string& name() const override {
    static const std::string kName = "adam";
    return kName;
  }

  std::vector<SlotSpec> SlotLayout(size_t param_count) const override {
    return {{"m", param_count, DType::kFp32},
            {"v", param_count, DType::kFp32}};
  }

  /// Elementwise: AdamUpdateRange and the AVX2 block compute the same bits
  /// for an element whatever range it falls in.
  bool SplitsBitwise() const override { return true; }

  util::Status Update(float* params, const float* grads, size_t count,
                      const std::vector<SlotView>& slots,
                      long step) const override {
    if (slots.size() != 2 || slots[0].count != count ||
        slots[1].count != count) {
      return util::Status::InvalidArgument("adam expects {m, v} slots");
    }
    AdamUpdate(config_, params, slots[0].data, slots[1].data, grads, count,
               step);
    return util::Status::OK();
  }

 private:
  AdamConfig config_;
};

}  // namespace

std::unique_ptr<Optimizer> MakeAdam(const OptimizerConfig& config) {
  return std::make_unique<AdamOptimizer>(config);
}

}  // namespace angelptm::core
