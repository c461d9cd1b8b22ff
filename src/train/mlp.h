#ifndef ANGELPTM_TRAIN_MLP_H_
#define ANGELPTM_TRAIN_MLP_H_

#include <cstddef>
#include <vector>

#include "train/layered_model.h"
#include "util/random.h"

namespace angelptm::train {

/// A real multi-layer perceptron (Linear -> GeLU stacks, linear head) whose
/// parameters live in the page-based memory subsystem. Each layer is one
/// schedulable unit, mirroring how the engine treats Transformer layers; the
/// convergence experiments (Table 6's valid-loss column) train this model
/// for real through the lock-free updater.
struct MlpConfig {
  /// Layer widths, e.g. {16, 64, 64, 1}: 3 layers.
  std::vector<size_t> dims;
};

class MlpModel : public LayeredModel {
 public:
  explicit MlpModel(MlpConfig config);

  int num_layers() const override {
    return static_cast<int>(config_.dims.size()) - 1;
  }
  size_t in_dim() const { return config_.dims.front(); }
  size_t out_dim() const { return config_.dims.back(); }
  size_t InputSize() const override { return in_dim(); }
  size_t OutputSize() const override { return out_dim(); }

  /// Parameters of layer l: weights (in*out) followed by bias (out).
  size_t LayerParamCount(int layer) const override;

  /// He-style initial weights, zero bias.
  std::vector<float> InitLayerParams(int layer,
                                     util::Rng* rng) const override;

  /// Applies layer `layer` to `in` (batch x in_dim), producing `out`
  /// (batch x out_dim). Hidden layers apply GeLU; the head is linear.
  /// `stash` records what backward needs (`input`, `pre_activation`),
  /// sized in place as LayeredModel::Forward describes.
  void Forward(int layer, const float* params, const std::vector<float>& in,
               size_t batch, std::vector<float>* out,
               LayerStash* stash) const override;

  /// Backward of layer `layer`: grad wrt output -> grad wrt input plus
  /// parameter gradients (same layout as the parameters).
  void Backward(int layer, const float* params, const LayerStash& stash,
                const std::vector<float>& grad_out, size_t batch,
                std::vector<float>* grad_in,
                std::vector<float>* grad_params) const override;

 private:
  MlpConfig config_;
};

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_MLP_H_
