#include "train/transformer.h"

#include <cmath>
#include <span>

#include "train/kernels.h"
#include "util/logging.h"

namespace angelptm::train {
namespace {

/// Parameter slice offsets within one block (see header for the layout).
struct BlockOffsets {
  size_t wq, wk, wv, wo;
  size_t ln1_gamma, ln1_beta;
  size_t w1, b1, w2, b2;
  size_t ln2_gamma, ln2_beta;
  size_t total;
};

BlockOffsets ComputeOffsets(size_t d, size_t f) {
  BlockOffsets o;
  size_t at = 0;
  o.wq = at, at += d * d;
  o.wk = at, at += d * d;
  o.wv = at, at += d * d;
  o.wo = at, at += d * d;
  o.ln1_gamma = at, at += d;
  o.ln1_beta = at, at += d;
  o.w1 = at, at += d * f;
  o.b1 = at, at += f;
  o.w2 = at, at += f * d;
  o.b2 = at, at += d;
  o.ln2_gamma = at, at += d;
  o.ln2_beta = at, at += d;
  o.total = at;
  return o;
}

/// Sizes `slot` to `n` floats in place (a reused slot keeps its capacity)
/// and returns its storage; every caller overwrites all `n` floats.
float* Sized(std::vector<float>* slot, size_t n) {
  slot->resize(n);
  return slot->data();
}

/// Stash slot indices for a block.
enum BlockStash {
  kMean1 = 0,
  kRstd1,
  kH1,
  kQ,
  kK,
  kV,
  kProbs,
  kConcat,
  kX2,
  kMean2,
  kRstd2,
  kH2,
  kPreGelu,
  kGelu,
  kNumBlockStash,
};

}  // namespace

TinyTransformer::TinyTransformer(const TransformerConfig& config)
    : config_(config) {
  ANGEL_CHECK(config_.num_heads >= 1) << "num_heads must be at least 1";
  ANGEL_CHECK(config_.d_model % config_.num_heads == 0)
      << "d_model must divide into heads";
  ANGEL_CHECK(config_.num_blocks >= 1);
}

size_t TinyTransformer::LayerParamCount(int layer) const {
  if (IsHead(layer)) {
    return config_.d_model * config_.out_dim + config_.out_dim;
  }
  return ComputeOffsets(config_.d_model, config_.d_ffn).total;
}

std::vector<float> TinyTransformer::InitLayerParams(int layer,
                                                    util::Rng* rng) const {
  const size_t d = config_.d_model, f = config_.d_ffn;
  std::vector<float> params(LayerParamCount(layer), 0.0f);
  auto fill = [&](size_t offset, size_t count, double stddev) {
    rng->FillGaussian(std::span<float>(params.data() + offset, count),
                      stddev);
  };
  if (IsHead(layer)) {
    fill(0, d * config_.out_dim, 1.0 / std::sqrt(double(d)));
    return params;  // Bias zero.
  }
  const BlockOffsets o = ComputeOffsets(d, f);
  const double attn_std = 1.0 / std::sqrt(double(d));
  fill(o.wq, d * d, attn_std);
  fill(o.wk, d * d, attn_std);
  fill(o.wv, d * d, attn_std);
  fill(o.wo, d * d, attn_std);
  fill(o.w1, d * f, std::sqrt(2.0 / double(d)));
  fill(o.w2, f * d, std::sqrt(2.0 / double(f)));
  // LayerNorm gains start at 1.
  for (size_t i = 0; i < d; ++i) {
    params[o.ln1_gamma + i] = 1.0f;
    params[o.ln2_gamma + i] = 1.0f;
  }
  return params;
}

void TinyTransformer::Forward(int layer, const float* params,
                              const std::vector<float>& in, size_t batch,
                              std::vector<float>* out,
                              LayerStash* stash) const {
  if (IsHead(layer)) {
    HeadForward(params, in, batch, out, stash);
  } else {
    BlockForward(params, in, batch, out, stash);
  }
}

void TinyTransformer::Backward(int layer, const float* params,
                               const LayerStash& stash,
                               const std::vector<float>& grad_out,
                               size_t batch, std::vector<float>* grad_in,
                               std::vector<float>* grad_params) const {
  if (IsHead(layer)) {
    HeadBackward(params, stash, grad_out, batch, grad_in, grad_params);
  } else {
    BlockBackward(params, stash, grad_out, batch, grad_in, grad_params);
  }
}

void TinyTransformer::BlockForward(const float* params,
                                   const std::vector<float>& in,
                                   size_t batch, std::vector<float>* out,
                                   LayerStash* stash) const {
  const size_t s = config_.seq_len, d = config_.d_model, f = config_.d_ffn,
               heads = config_.num_heads;
  const size_t m = batch * s;  // Token rows.
  ANGEL_CHECK(in.size() == m * d) << "block input size mismatch";
  const BlockOffsets o = ComputeOffsets(d, f);
  // Every interior goes straight into its stash slot (locals without one).
  LayerStash local;
  std::vector<std::vector<float>>& saved =
      (stash != nullptr ? stash : &local)->saved;
  if (saved.size() < kNumBlockStash) saved.resize(kNumBlockStash);

  // LN1.
  float* h1 = Sized(&saved[kH1], m * d);
  float* mean1 = Sized(&saved[kMean1], m);
  float* rstd1 = Sized(&saved[kRstd1], m);
  LayerNorm(in.data(), params + o.ln1_gamma, params + o.ln1_beta, h1, mean1,
            rstd1, m, d);

  // QKV projections.
  float* q = Sized(&saved[kQ], m * d);
  float* k = Sized(&saved[kK], m * d);
  float* v = Sized(&saved[kV], m * d);
  Gemm(h1, params + o.wq, q, m, d, d);
  Gemm(h1, params + o.wk, k, m, d, d);
  Gemm(h1, params + o.wv, v, m, d, d);

  // Causal multi-head attention + output projection, then residual.
  float* concat = Sized(&saved[kConcat], m * d);
  float* probs = Sized(&saved[kProbs], batch * heads * s * s);
  CausalAttention(q, k, v, concat, probs, batch, s, heads, d / heads);
  float* x2 = Sized(&saved[kX2], m * d);
  Gemm(concat, params + o.wo, x2, m, d, d);
  for (size_t i = 0; i < m * d; ++i) x2[i] += in[i];

  // LN2 + FFN + residual.
  float* h2 = Sized(&saved[kH2], m * d);
  float* mean2 = Sized(&saved[kMean2], m);
  float* rstd2 = Sized(&saved[kRstd2], m);
  LayerNorm(x2, params + o.ln2_gamma, params + o.ln2_beta, h2, mean2, rstd2,
            m, d);
  float* u = Sized(&saved[kPreGelu], m * f);
  Gemm(h2, params + o.w1, u, m, d, f);
  // Fused bias + GeLU; `u` keeps the post-bias pre-activation for backward.
  float* g = Sized(&saved[kGelu], m * f);
  AddBiasGelu(u, params + o.b1, g, m, f);
  float* y = Sized(out, m * d);
  Gemm(g, params + o.w2, y, m, f, d);
  AddBias(y, params + o.b2, m, d);
  for (size_t i = 0; i < m * d; ++i) y[i] += x2[i];

  if (stash != nullptr) stash->input.assign(in.begin(), in.end());
}

void TinyTransformer::BlockBackward(const float* params,
                                    const LayerStash& stash,
                                    const std::vector<float>& grad_out,
                                    size_t batch,
                                    std::vector<float>* grad_in,
                                    std::vector<float>* grad_params) const {
  const size_t s = config_.seq_len, d = config_.d_model, f = config_.d_ffn,
               heads = config_.num_heads;
  const size_t m = batch * s;
  const BlockOffsets o = ComputeOffsets(d, f);
  grad_params->assign(o.total, 0.0f);
  float* gp = grad_params->data();

  const auto& x = stash.input;
  const auto& h1 = stash.saved[kH1];
  const auto& q = stash.saved[kQ];
  const auto& k = stash.saved[kK];
  const auto& v = stash.saved[kV];
  const auto& probs = stash.saved[kProbs];
  const auto& concat = stash.saved[kConcat];
  const auto& x2 = stash.saved[kX2];
  const auto& h2 = stash.saved[kH2];
  const auto& u = stash.saved[kPreGelu];
  const auto& g = stash.saved[kGelu];

  // y = x2 + FFN(LN2(x2)): FFN chain first.
  // dg = dy W2^T ; dW2 = g^T dy ; db2 = colsum(dy).
  std::vector<float> dg(m * f);
  GemmTransB(grad_out.data(), params + o.w2, dg.data(), m, d, f);
  GemmTransA(g.data(), grad_out.data(), gp + o.w2, f, m, d);
  BiasBackward(grad_out.data(), gp + o.b2, m, d);

  std::vector<float> du(m * f);
  // Fused GeLU backward + b1 gradient in a single pass over du.
  AddBiasGeluBackward(u.data(), dg.data(), du.data(), gp + o.b1, m, f);
  GemmTransA(h2.data(), du.data(), gp + o.w1, d, m, f);
  std::vector<float> dh2(m * d);
  GemmTransB(du.data(), params + o.w1, dh2.data(), m, f, d);

  // LN2 backward into x2, plus the residual path.
  std::vector<float> dx2(m * d);
  LayerNormBackward(x2.data(), params + o.ln2_gamma, dh2.data(),
                    stash.saved[kMean2].data(), stash.saved[kRstd2].data(),
                    dx2.data(), gp + o.ln2_gamma, gp + o.ln2_beta, m, d);
  for (size_t i = 0; i < m * d; ++i) dx2[i] += grad_out[i];

  // x2 = x + concat Wo: output projection backward.
  std::vector<float> dconcat(m * d);
  GemmTransB(dx2.data(), params + o.wo, dconcat.data(), m, d, d);
  GemmTransA(concat.data(), dx2.data(), gp + o.wo, d, m, d);

  // Attention backward into the q/k/v projections' outputs.
  std::vector<float> dq(m * d), dk(m * d), dv(m * d);
  CausalAttentionBackward(q.data(), k.data(), v.data(), probs.data(),
                          dconcat.data(), dq.data(), dk.data(), dv.data(),
                          batch, s, heads, d / heads);

  // QKV projection backward into h1 and the weights.
  std::vector<float> dh1(m * d, 0.0f), tmp(m * d);
  GemmTransB(dq.data(), params + o.wq, tmp.data(), m, d, d);
  for (size_t i = 0; i < m * d; ++i) dh1[i] += tmp[i];
  GemmTransB(dk.data(), params + o.wk, tmp.data(), m, d, d);
  for (size_t i = 0; i < m * d; ++i) dh1[i] += tmp[i];
  GemmTransB(dv.data(), params + o.wv, tmp.data(), m, d, d);
  for (size_t i = 0; i < m * d; ++i) dh1[i] += tmp[i];
  GemmTransA(h1.data(), dq.data(), gp + o.wq, d, m, d);
  GemmTransA(h1.data(), dk.data(), gp + o.wk, d, m, d);
  GemmTransA(h1.data(), dv.data(), gp + o.wv, d, m, d);

  // LN1 backward into x, plus the attention residual (dx2 flows to x).
  grad_in->assign(m * d, 0.0f);
  LayerNormBackward(x.data(), params + o.ln1_gamma, dh1.data(),
                    stash.saved[kMean1].data(), stash.saved[kRstd1].data(),
                    grad_in->data(), gp + o.ln1_gamma, gp + o.ln1_beta, m,
                    d);
  for (size_t i = 0; i < m * d; ++i) (*grad_in)[i] += dx2[i];
}

void TinyTransformer::HeadForward(const float* params,
                                  const std::vector<float>& in, size_t batch,
                                  std::vector<float>* out,
                                  LayerStash* stash) const {
  const size_t s = config_.seq_len, d = config_.d_model,
               out_dim = config_.out_dim;
  ANGEL_CHECK(in.size() == batch * s * d) << "head input size mismatch";
  // Slot 0 holds the pooled rows; a block's other slots stay as they are.
  LayerStash local;
  std::vector<std::vector<float>>& saved =
      (stash != nullptr ? stash : &local)->saved;
  if (saved.empty()) saved.resize(1);
  // Mean-pool over the sequence, then a linear projection.
  std::vector<float>& pooled = saved[0];
  pooled.assign(batch * d, 0.0f);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t i = 0; i < s; ++i) {
      const float* row = in.data() + (b * s + i) * d;
      for (size_t c = 0; c < d; ++c) pooled[b * d + c] += row[c] / float(s);
    }
  }
  float* y = Sized(out, batch * out_dim);
  Gemm(pooled.data(), params, y, batch, d, out_dim);
  AddBias(y, params + d * out_dim, batch, out_dim);
  if (stash != nullptr) stash->input.assign(in.begin(), in.end());
}

void TinyTransformer::HeadBackward(const float* params,
                                   const LayerStash& stash,
                                   const std::vector<float>& grad_out,
                                   size_t batch,
                                   std::vector<float>* grad_in,
                                   std::vector<float>* grad_params) const {
  const size_t s = config_.seq_len, d = config_.d_model,
               out_dim = config_.out_dim;
  grad_params->assign(LayerParamCount(config_.num_blocks), 0.0f);
  const auto& pooled = stash.saved[0];
  GemmTransA(pooled.data(), grad_out.data(), grad_params->data(), d, batch,
             out_dim);
  BiasBackward(grad_out.data(), grad_params->data() + d * out_dim, batch,
               out_dim);
  std::vector<float> dpooled(batch * d);
  GemmTransB(grad_out.data(), params, dpooled.data(), batch, out_dim, d);
  grad_in->assign(batch * s * d, 0.0f);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t i = 0; i < s; ++i) {
      float* row = grad_in->data() + (b * s + i) * d;
      for (size_t c = 0; c < d; ++c) row[c] = dpooled[b * d + c] / float(s);
    }
  }
}

}  // namespace angelptm::train
