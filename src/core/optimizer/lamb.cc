#include <cmath>
#include <vector>

#include "core/optimizer/optimizer.h"
#include "util/parallel_for.h"

namespace angelptm::core {
namespace {

constexpr size_t kLambGrain = 8192;
/// The layer-wise trust ratio ||p|| / ||update|| is clamped into
/// (0, kTrustClamp] before it scales the learning rate.
constexpr double kTrustClamp = 10.0;

/// LAMB (You et al.): Adam-style moments plus a layer-wise trust ratio
/// ||p|| / ||update|| scaling the learning rate. The two norms are global
/// reductions; they run as fixed-grain chunked partial sums over
/// ParallelForChunks, reduced sequentially in chunk order, so the result is
/// independent of the compute-pool thread count (the determinism contract
/// in optimizer.h).
class LambOptimizer final : public Optimizer {
 public:
  explicit LambOptimizer(const OptimizerConfig& config) : config_(config) {}

  const std::string& name() const override {
    static const std::string kName = "lamb";
    return kName;
  }

  std::vector<SlotSpec> SlotLayout(size_t param_count) const override {
    return {{"m", param_count, DType::kFp32},
            {"v", param_count, DType::kFp32}};
  }

  /// The trust ratio needs both layer-wide norms before any element moves.
  bool SplitsBitwise() const override { return false; }

  util::Status Update(float* params, const float* grads, size_t count,
                      const std::vector<SlotView>& slots,
                      long step) const override {
    if (slots.size() != 2 || slots[0].count != count ||
        slots[1].count != count) {
      return util::Status::InvalidArgument("lamb expects {m, v} slots");
    }
    float* m = slots[0].data;
    float* v = slots[1].data;
    const double b1 = config_.beta1;
    const double b2 = config_.beta2;
    const double eps = config_.epsilon;
    const double wd = config_.weight_decay;
    const double bc1 = 1.0 - std::pow(b1, double(step));
    const double bc2 = 1.0 - std::pow(b2, double(step));

    // Pass 1: moments + the raw update direction r, with per-chunk partial
    // sums for the two norms.
    std::vector<float> r(count);
    const size_t num_chunks = util::ParallelForNumChunks(0, count, kLambGrain);
    std::vector<double> p_sq(num_chunks, 0.0);
    std::vector<double> r_sq(num_chunks, 0.0);
    util::ParallelForChunks(
        util::ComputePool(), 0, count, kLambGrain,
        [&](size_t chunk, size_t lo, size_t hi) {
          double p_acc = 0.0;
          double r_acc = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            const double g = grads[i];
            const double mi = b1 * m[i] + (1.0 - b1) * g;
            const double vi = b2 * v[i] + (1.0 - b2) * g * g;
            m[i] = float(mi);
            v[i] = float(vi);
            const double update =
                (mi / bc1) / (std::sqrt(vi / bc2) + eps) + wd * params[i];
            r[i] = float(update);
            p_acc += double(params[i]) * double(params[i]);
            r_acc += update * update;
          }
          p_sq[chunk] = p_acc;
          r_sq[chunk] = r_acc;
        });
    // Sequential chunk-order reduction: deterministic at any thread count.
    double p_norm_sq = 0.0;
    double r_norm_sq = 0.0;
    for (size_t c = 0; c < num_chunks; ++c) {
      p_norm_sq += p_sq[c];
      r_norm_sq += r_sq[c];
    }
    const double p_norm = std::sqrt(p_norm_sq);
    const double r_norm = std::sqrt(r_norm_sq);
    // Degenerate norms (all-zero params or a zero update) fall back to
    // trust 1 — plain Adam-style scaling — matching the reference LAMB.
    double trust = 1.0;
    if (p_norm > 0.0 && r_norm > 0.0) {
      trust = std::min(p_norm / r_norm, kTrustClamp);
    }

    // Pass 2: the scaled step.
    const double scaled_lr = config_.learning_rate * trust;
    const float* r_data = r.data();
    util::ParallelFor(util::ComputePool(), 0, count, kLambGrain,
                      [params, r_data, scaled_lr](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) {
                          params[i] -= float(scaled_lr * r_data[i]);
                        }
                      });
    return util::Status::OK();
  }

 private:
  OptimizerConfig config_;
};

}  // namespace

std::unique_ptr<Optimizer> MakeLamb(const OptimizerConfig& config) {
  return std::make_unique<LambOptimizer>(config);
}

}  // namespace angelptm::core
