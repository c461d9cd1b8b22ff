#ifndef ANGELPTM_TRAIN_DATASET_H_
#define ANGELPTM_TRAIN_DATASET_H_

#include <cstddef>
#include <vector>

#include "util/random.h"

namespace angelptm::train {

/// Synthetic regression task standing in for the paper's industrial text
/// corpus (DESIGN.md §1): a fixed randomly-initialized teacher network with
/// mild observation noise. Convergence comparisons (lock-free vs
/// synchronous) are relative, so the dataset identity does not matter; what
/// matters is that both runs see identical batches, which the seeded
/// generator guarantees.
class SyntheticRegression {
 public:
  /// Teacher: in_dim -> hidden (tanh) -> out_dim, weights from `seed`.
  SyntheticRegression(size_t in_dim, size_t hidden, size_t out_dim,
                      uint64_t seed, double noise_stddev = 0.01);

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  /// Fills `x` (batch x in_dim) and `y` (batch x out_dim) with the next
  /// batch from `rng`.
  void GenBatch(util::Rng* rng, size_t batch, std::vector<float>* x,
                std::vector<float>* y) const;

 private:
  void Teacher(const float* x, float* y) const;

  size_t in_dim_, hidden_, out_dim_;
  double noise_stddev_;
  std::vector<float> w1_, b1_, w2_, b2_;
};

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_DATASET_H_
