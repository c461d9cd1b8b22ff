#ifndef ANGELPTM_TRAIN_TRANSFORMER_H_
#define ANGELPTM_TRAIN_TRANSFORMER_H_

#include <cstddef>
#include <vector>

#include "train/layered_model.h"
#include "util/random.h"

namespace angelptm::train {

/// A real (small) Transformer, numerically complete: pre-LayerNorm decoder
/// blocks with causal multi-head self-attention and a GeLU FFN, plus a
/// mean-pool linear head. Forward *and* backward are implemented from
/// scratch over the fp32 kernels — this is the architecture whose memory
/// behaviour the paper studies (Table 1's components appear literally in
/// each block), trained for real through the page-based engine and the
/// lock-free updater.
///
/// One block = one schedulable layer, parameter layout:
///   Wq,Wk,Wv,Wo (d*d each) | ln1 gamma,beta (d each) |
///   W1 (d*f), b1 (f), W2 (f*d), b2 (d) | ln2 gamma,beta (d each)
/// The head layer holds d*out + out.
struct TransformerConfig {
  size_t seq_len = 8;
  size_t d_model = 16;
  size_t num_heads = 2;
  size_t d_ffn = 32;
  int num_blocks = 2;
  size_t out_dim = 2;
};

class TinyTransformer : public LayeredModel {
 public:
  explicit TinyTransformer(const TransformerConfig& config);

  const TransformerConfig& config() const { return config_; }

  int num_layers() const override { return config_.num_blocks + 1; }
  size_t InputSize() const override {
    return config_.seq_len * config_.d_model;
  }
  size_t OutputSize() const override { return config_.out_dim; }

  size_t LayerParamCount(int layer) const override;
  std::vector<float> InitLayerParams(int layer,
                                     util::Rng* rng) const override;

  void Forward(int layer, const float* params, const std::vector<float>& in,
               size_t batch, std::vector<float>* out,
               LayerStash* stash) const override;
  void Backward(int layer, const float* params, const LayerStash& stash,
                const std::vector<float>& grad_out, size_t batch,
                std::vector<float>* grad_in,
                std::vector<float>* grad_params) const override;

 private:
  bool IsHead(int layer) const { return layer == config_.num_blocks; }

  void BlockForward(const float* params, const std::vector<float>& in,
                    size_t batch, std::vector<float>* out,
                    LayerStash* stash) const;
  void BlockBackward(const float* params, const LayerStash& stash,
                     const std::vector<float>& grad_out, size_t batch,
                     std::vector<float>* grad_in,
                     std::vector<float>* grad_params) const;
  void HeadForward(const float* params, const std::vector<float>& in,
                   size_t batch, std::vector<float>* out,
                   LayerStash* stash) const;
  void HeadBackward(const float* params, const LayerStash& stash,
                    const std::vector<float>& grad_out, size_t batch,
                    std::vector<float>* grad_in,
                    std::vector<float>* grad_params) const;

  TransformerConfig config_;
};

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_TRANSFORMER_H_
