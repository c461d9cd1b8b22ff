#include "train/dataset.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/logging.h"
#include "util/parallel_for.h"

namespace angelptm::train {
namespace {

/// Most samples one teacher task takes, so that its double accumulators
/// stay in cache while it streams the weight rows.
constexpr size_t kMaxSamplesPerTask = 16;

/// One dense layer over a task's n samples: acc[b][c] = bias[c] + the sum
/// over r of in[b][r] * w[r][c], adding the terms in index order in double
/// and reading each row of w once. The inner loop keeps four independent
/// lanes, which the compiler packs into vector instructions at -O2 too.
void DenseLayer(const float* in, size_t n, size_t rows, size_t cols,
                const float* w, const float* bias, double* acc) {
  for (size_t b = 0; b < n; ++b) std::copy(bias, bias + cols, acc + b * cols);
  for (size_t r = 0; r < rows; ++r) {
    const float* wr = w + r * cols;
    for (size_t b = 0; b < n; ++b) {
      const double v = in[b * rows + r];
      double* a = acc + b * cols;
      size_t c = 0;
      for (; c + 4 <= cols; c += 4) {
        a[c] += v * wr[c];
        a[c + 1] += v * wr[c + 1];
        a[c + 2] += v * wr[c + 2];
        a[c + 3] += v * wr[c + 3];
      }
      for (; c < cols; ++c) a[c] += v * wr[c];
    }
  }
}

}  // namespace

SyntheticRegression::SyntheticRegression(size_t in_dim, size_t hidden,
                                         size_t out_dim, uint64_t seed,
                                         double noise_stddev)
    : in_dim_(in_dim),
      hidden_(hidden),
      out_dim_(out_dim),
      noise_stddev_(noise_stddev) {
  util::Rng rng(seed);
  w1_.resize(in_dim * hidden);
  b1_.resize(hidden);
  w2_.resize(hidden * out_dim);
  b2_.resize(out_dim);
  rng.FillGaussian(&w1_, 1.0 / std::sqrt(double(in_dim)));
  rng.FillGaussian(&b1_, 0.1);
  rng.FillGaussian(&w2_, 1.0 / std::sqrt(double(hidden)));
  rng.FillGaussian(&b2_, 0.1);
}

void SyntheticRegression::GenBatchRows(util::Rng* rng, size_t batch,
                                       size_t first, size_t count,
                                       std::vector<float>* x,
                                       std::vector<float>* y) const {
  ANGEL_CHECK(first <= batch && count <= batch - first)
      << "rows [" << first << ", " << first + count << ") outside a batch of "
      << batch;
  x->resize(count * in_dim_);
  y->resize(count * out_dim_);
  // The stream order of one sample at a time: its inputs, then its noise.
  // The noise waits in y for the teacher's output.
  const size_t draws_per_sample = in_dim_ + out_dim_;
  rng->SkipGaussian(first * draws_per_sample);
  for (size_t b = 0; b < count; ++b) {
    rng->FillGaussian(std::span<float>(x->data() + b * in_dim_, in_dim_),
                      1.0);
    rng->FillGaussian(std::span<float>(y->data() + b * out_dim_, out_dim_),
                      noise_stddev_);
  }
  rng->SkipGaussian((batch - first - count) * draws_per_sample);

  // The teacher, in_dim -> hidden (tanh) -> out_dim, over each task's
  // samples at once. Each output is bitwise what one sample at a time
  // gives: the per-output sums run in the same order.
  const size_t threads = util::ComputePoolThreads();
  const size_t grain = std::clamp<size_t>((count + threads - 1) / threads, 1,
                                          kMaxSamplesPerTask);
  util::ParallelFor(
      util::ComputePool(), 0, count, grain, [&](size_t lo, size_t hi) {
        const size_t n = hi - lo;
        std::vector<double> acc(n * std::max(hidden_, out_dim_));
        DenseLayer(x->data() + lo * in_dim_, n, in_dim_, hidden_, w1_.data(),
                   b1_.data(), acc.data());
        std::vector<float> h(n * hidden_);
        for (size_t e = 0; e < h.size(); ++e) h[e] = float(std::tanh(acc[e]));
        DenseLayer(h.data(), n, hidden_, out_dim_, w2_.data(), b2_.data(),
                   acc.data());
        float* yb = y->data() + lo * out_dim_;
        for (size_t e = 0; e < n * out_dim_; ++e) {
          yb[e] = float(acc[e]) + yb[e];
        }
      });
}

}  // namespace angelptm::train
