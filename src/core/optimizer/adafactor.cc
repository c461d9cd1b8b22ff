#include <algorithm>
#include <cmath>
#include <vector>

#include "core/optimizer/optimizer.h"
#include "util/parallel_for.h"

namespace angelptm::core {
namespace {

/// Rows of the factored grid processed per reduction chunk.
constexpr size_t kRowGrain = 64;
constexpr size_t kElemGrain = 8192;
/// Keeps the factored statistics strictly positive so v-hat never divides
/// zero by zero on all-zero gradients.
constexpr double kStatFloor = 1e-30;

/// Adafactor (Shazeer & Stern): the second moment is stored factored as a
/// per-row and per-column running average of g^2 over a rows x cols view of
/// the flat parameter vector — rows + cols floats of master state instead
/// of Adam's 2 x count, which is the "materially smaller master state" the
/// SSD tier and paging pipeline get stressed with. No first moment.
///
/// v-hat[i,j] = R[i] * C[j] / sum(R): the rank-1 reconstruction of the
/// running g^2 average. Row/column statistics are reduced in fixed chunk
/// order (deterministic at any thread count).
class AdafactorOptimizer final : public Optimizer {
 public:
  explicit AdafactorOptimizer(const OptimizerConfig& config)
      : config_(config) {
    if (config_.adafactor_cols == 0) config_.adafactor_cols = 1;
  }

  const std::string& name() const override {
    static const std::string kName = "adafactor";
    return kName;
  }

  std::vector<SlotSpec> SlotLayout(size_t param_count) const override {
    const size_t cols = std::min(config_.adafactor_cols, param_count);
    const size_t rows = (param_count + cols - 1) / cols;
    return {{"row", rows, DType::kFp32}, {"col", cols, DType::kFp32}};
  }

  /// Row and column statistics span the whole factored grid.
  bool SplitsBitwise() const override { return false; }

  util::Status Update(float* params, const float* grads, size_t count,
                      const std::vector<SlotView>& slots,
                      long step) const override {
    const size_t cols = std::min(config_.adafactor_cols, count);
    const size_t rows = (count + cols - 1) / cols;
    if (slots.size() != 2 || slots[0].count != rows ||
        slots[1].count != cols) {
      return util::Status::InvalidArgument(
          "adafactor expects {row, col} slots sized for the factored grid");
    }
    float* row_stat = slots[0].data;
    float* col_stat = slots[1].data;
    const double b2 = config_.beta2;
    const double bc2 = 1.0 - std::pow(b2, double(step));

    // Fresh row/col sums of g^2 over the (ragged) grid. Each chunk of rows
    // produces its own column partial; chunk-order reduction keeps both
    // statistics bitwise independent of the worker count.
    std::vector<double> row_sum(rows, 0.0);
    const size_t num_chunks = util::ParallelForNumChunks(0, rows, kRowGrain);
    std::vector<std::vector<double>> col_partial(
        num_chunks, std::vector<double>(cols, 0.0));
    util::ParallelForChunks(
        util::ComputePool(), 0, rows, kRowGrain,
        [&](size_t chunk, size_t row_lo, size_t row_hi) {
          std::vector<double>& cols_acc = col_partial[chunk];
          for (size_t i = row_lo; i < row_hi; ++i) {
            const size_t lo = i * cols;
            const size_t hi = std::min(count, lo + cols);
            double acc = 0.0;
            for (size_t k = lo; k < hi; ++k) {
              const double g2 = double(grads[k]) * double(grads[k]) +
                                kStatFloor;
              acc += g2;
              cols_acc[k - lo] += g2;
            }
            row_sum[i] = acc;
          }
        });
    std::vector<double> col_sum(cols, 0.0);
    for (size_t c = 0; c < num_chunks; ++c) {
      for (size_t j = 0; j < cols; ++j) col_sum[j] += col_partial[c][j];
    }

    // Decayed running averages, then the shared v-hat denominator.
    double row_total = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      const double ri = b2 * row_stat[i] + (1.0 - b2) * row_sum[i];
      row_stat[i] = float(ri);
      row_total += ri / bc2;
    }
    for (size_t j = 0; j < cols; ++j) {
      col_stat[j] = float(b2 * col_stat[j] + (1.0 - b2) * col_sum[j]);
    }
    if (row_total <= 0.0) row_total = kStatFloor;

    const double lr = config_.learning_rate;
    const double eps = config_.epsilon;
    const double wd = config_.weight_decay;
    const double inv_total = 1.0 / row_total;
    util::ParallelFor(
        util::ComputePool(), 0, count, kElemGrain,
        [&](size_t lo, size_t hi) {
          for (size_t k = lo; k < hi; ++k) {
            const size_t i = k / cols;
            const size_t j = k % cols;
            const double v_hat = (double(row_stat[i]) / bc2) *
                                 (double(col_stat[j]) / bc2) * inv_total;
            double u = double(grads[k]) / (std::sqrt(v_hat) + eps);
            if (wd != 0.0) u += wd * params[k];
            params[k] -= float(lr * u);
          }
        });
    return util::Status::OK();
  }

 private:
  OptimizerConfig config_;
};

}  // namespace

std::unique_ptr<Optimizer> MakeAdafactor(const OptimizerConfig& config) {
  return std::make_unique<AdafactorOptimizer>(config);
}

}  // namespace angelptm::core
