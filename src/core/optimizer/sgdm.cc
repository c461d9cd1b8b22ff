#include "core/optimizer/optimizer.h"
#include "util/parallel_for.h"

namespace angelptm::core {
namespace {

constexpr size_t kSgdmGrain = 8192;

/// SGD with (heavyball) momentum: m = beta1*m + g (+ wd*p); p -= lr*m.
/// Strictly elementwise, so the blocked parallel run is bitwise identical
/// to the sequential loop at any thread count.
class SgdmOptimizer final : public Optimizer {
 public:
  explicit SgdmOptimizer(const OptimizerConfig& config) : config_(config) {}

  const std::string& name() const override {
    static const std::string kName = "sgdm";
    return kName;
  }

  std::vector<SlotSpec> SlotLayout(size_t param_count) const override {
    return {{"m", param_count, DType::kFp32}};
  }

  bool SplitsBitwise() const override { return true; }

  util::Status Update(float* params, const float* grads, size_t count,
                      const std::vector<SlotView>& slots,
                      long /*step*/) const override {
    if (slots.size() != 1 || slots[0].count != count) {
      return util::Status::InvalidArgument("sgdm expects a {m} slot");
    }
    float* m = slots[0].data;
    const double momentum = config_.beta1;
    const double lr = config_.learning_rate;
    const double wd = config_.weight_decay;
    util::ParallelFor(util::ComputePool(), 0, count, kSgdmGrain,
                      [params, grads, m, momentum, lr, wd](size_t lo,
                                                           size_t hi) {
                        for (size_t i = lo; i < hi; ++i) {
                          double g = grads[i];
                          if (wd != 0.0) g += wd * params[i];
                          const double mi = momentum * m[i] + g;
                          m[i] = float(mi);
                          params[i] -= float(lr * mi);
                        }
                      });
    return util::Status::OK();
  }

 private:
  OptimizerConfig config_;
};

}  // namespace

std::unique_ptr<Optimizer> MakeSgdm(const OptimizerConfig& config) {
  return std::make_unique<SgdmOptimizer>(config);
}

}  // namespace angelptm::core
