#include "train/mlp.h"

#include <cmath>
#include <span>

#include "train/kernels.h"
#include "util/logging.h"

namespace angelptm::train {

MlpModel::MlpModel(MlpConfig config) : config_(std::move(config)) {
  ANGEL_CHECK(config_.dims.size() >= 2) << "MLP needs at least one layer";
}

size_t MlpModel::LayerParamCount(int layer) const {
  const size_t in = config_.dims[layer];
  const size_t out = config_.dims[layer + 1];
  return in * out + out;
}

std::vector<float> MlpModel::InitLayerParams(int layer,
                                             util::Rng* rng) const {
  const size_t in = config_.dims[layer];
  const size_t out = config_.dims[layer + 1];
  std::vector<float> params(in * out + out, 0.0f);
  rng->FillGaussian(std::span<float>(params.data(), in * out),
                    std::sqrt(2.0 / double(in)));
  return params;  // Bias stays zero.
}

void MlpModel::Forward(int layer, const float* params,
                       const std::vector<float>& in, size_t batch,
                       std::vector<float>* out, LayerStash* stash) const {
  const size_t in_dim = config_.dims[layer];
  const size_t out_dim = config_.dims[layer + 1];
  ANGEL_CHECK(in.size() == batch * in_dim) << "layer input size mismatch";
  const float* weights = params;
  const float* bias = params + in_dim * out_dim;

  // The pre-activation goes straight into the stash (a local without one).
  std::vector<float> local;
  std::vector<float>& z = stash != nullptr ? stash->pre_activation : local;
  z.resize(batch * out_dim);
  Gemm(in.data(), weights, z.data(), batch, in_dim, out_dim);

  const bool is_head = layer == num_layers() - 1;
  if (is_head) {
    AddBias(z.data(), bias, batch, out_dim);
    out->assign(z.begin(), z.end());
  } else {
    // Fused bias + GeLU: one pass over the activations instead of two.
    // `z` ends up holding the post-bias pre-activation for backward.
    out->resize(batch * out_dim);
    AddBiasGelu(z.data(), bias, out->data(), batch, out_dim);
  }
  if (stash != nullptr) stash->input.assign(in.begin(), in.end());
}

void MlpModel::Backward(int layer, const float* params,
                        const LayerStash& stash,
                        const std::vector<float>& grad_out, size_t batch,
                        std::vector<float>* grad_in,
                        std::vector<float>* grad_params) const {
  const size_t in_dim = config_.dims[layer];
  const size_t out_dim = config_.dims[layer + 1];
  ANGEL_CHECK(grad_out.size() == batch * out_dim) << "grad size mismatch";
  const float* weights = params;

  const bool is_head = layer == num_layers() - 1;
  grad_params->assign(in_dim * out_dim + out_dim, 0.0f);
  std::vector<float> dz(batch * out_dim);
  if (is_head) {
    dz = grad_out;
    // db = column sums of dz.
    BiasBackward(dz.data(), grad_params->data() + in_dim * out_dim, batch,
                 out_dim);
  } else {
    // Fused GeLU backward + bias gradient in one pass over dz.
    AddBiasGeluBackward(stash.pre_activation.data(), grad_out.data(),
                        dz.data(), grad_params->data() + in_dim * out_dim,
                        batch, out_dim);
  }
  // dW = x^T * dz.
  GemmTransA(stash.input.data(), dz.data(), grad_params->data(), in_dim,
             batch, out_dim);
  // dx = dz * W^T.
  grad_in->resize(batch * in_dim);
  GemmTransB(dz.data(), weights, grad_in->data(), batch, out_dim, in_dim);
}

}  // namespace angelptm::train
