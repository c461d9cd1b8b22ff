#ifndef ANGELPTM_TRAIN_LAYERED_MODEL_H_
#define ANGELPTM_TRAIN_LAYERED_MODEL_H_

#include <cstddef>
#include <vector>

#include "util/random.h"

namespace angelptm::train {

/// Per-layer forward state kept for the backward pass. `input` and
/// `pre_activation` serve simple layers (MLP); `saved` holds whatever else
/// a layer needs (attention probabilities, LayerNorm statistics, ...).
/// A stash may be reused across steps and layers: Forward sizes each slot
/// in place, so the slots keep their capacity.
struct LayerStash {
  std::vector<float> input;
  std::vector<float> pre_activation;
  std::vector<std::vector<float>> saved;
};

/// A model the training stack can drive layer by layer. Each layer is one
/// schedulable unit — the granularity at which Angel-PTM pages parameters,
/// traces life-times, and pipelines optimizer updates. Implemented by
/// MlpModel and TinyTransformer.
class LayeredModel {
 public:
  virtual ~LayeredModel() = default;

  virtual int num_layers() const = 0;
  /// Floats per sample at the model boundary.
  virtual size_t InputSize() const = 0;
  virtual size_t OutputSize() const = 0;

  /// Parameter elements of layer `layer`.
  virtual size_t LayerParamCount(int layer) const = 0;
  /// Fresh initial parameters for layer `layer`.
  virtual std::vector<float> InitLayerParams(int layer,
                                             util::Rng* rng) const = 0;

  /// Applies layer `layer` to `in` (batch x layer-input floats), producing
  /// `out`. When `stash` is non-null, records what Backward needs: every
  /// interior is computed straight into the stash's slots, each sized in
  /// place (never re-assigned or replaced by a fresh vector), and slots
  /// this layer does not use are left as they are. A stash reused across
  /// steps, layers or layer types therefore keeps every slot's capacity,
  /// and a second same-shape call leaves every slot's data() where it was.
  /// A null `stash` computes the interiors in locals. `out` is sized in
  /// place too.
  virtual void Forward(int layer, const float* params,
                       const std::vector<float>& in, size_t batch,
                       std::vector<float>* out, LayerStash* stash) const = 0;

  /// Backward of layer `layer`: gradient wrt output -> gradient wrt input
  /// plus parameter gradients (same layout as the parameters).
  virtual void Backward(int layer, const float* params,
                        const LayerStash& stash,
                        const std::vector<float>& grad_out, size_t batch,
                        std::vector<float>* grad_in,
                        std::vector<float>* grad_params) const = 0;
};

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_LAYERED_MODEL_H_
