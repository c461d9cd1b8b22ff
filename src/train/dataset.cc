#include "train/dataset.h"

#include <cmath>

namespace angelptm::train {

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

void SyntheticRegression::Teacher(const float* x, float* y) const {
  std::vector<float> h(hidden_);
  for (size_t j = 0; j < hidden_; ++j) {
    double sum = b1_[j];
    for (size_t i = 0; i < in_dim_; ++i) {
      sum += double(x[i]) * w1_[i * hidden_ + j];
    }
    h[j] = float(std::tanh(sum));
  }
  for (size_t k = 0; k < out_dim_; ++k) {
    double sum = b2_[k];
    for (size_t j = 0; j < hidden_; ++j) {
      sum += double(h[j]) * w2_[j * out_dim_ + k];
    }
    y[k] = float(sum);
  }
}

void SyntheticRegression::GenBatch(util::Rng* rng, size_t batch,
                                   std::vector<float>* x,
                                   std::vector<float>* y) const {
  x->resize(batch * in_dim_);
  y->resize(batch * out_dim_);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t i = 0; i < in_dim_; ++i) {
      (*x)[b * in_dim_ + i] = float(rng->NextGaussian());
    }
    Teacher(x->data() + b * in_dim_, y->data() + b * out_dim_);
    for (size_t k = 0; k < out_dim_; ++k) {
      (*y)[b * out_dim_ + k] += float(rng->NextGaussian() * noise_stddev_);
    }
  }
}

}  // namespace angelptm::train
