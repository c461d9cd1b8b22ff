#include "train/transformer.h"

#include <cmath>

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
  if (IsHead(layer)) {
    const double stddev = 1.0 / std::sqrt(double(d));
    for (size_t i = 0; i < d * config_.out_dim; ++i) {
      params[i] = float(rng->NextGaussian() * stddev);
    }
    return params;  // Bias zero.
  }
  const BlockOffsets o = ComputeOffsets(d, f);
  auto fill = [&](size_t offset, size_t count, double stddev) {
    for (size_t i = 0; i < count; ++i) {
      params[offset + i] = float(rng->NextGaussian() * stddev);
    }
  };
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

  // LN1.
  std::vector<float> h1(m * d), mean1(m), rstd1(m);
  LayerNorm(in.data(), params + o.ln1_gamma, params + o.ln1_beta, h1.data(),
            mean1.data(), rstd1.data(), m, d);

  // QKV projections.
  std::vector<float> q(m * d), k(m * d), v(m * d);
  Gemm(h1.data(), params + o.wq, q.data(), m, d, d);
  Gemm(h1.data(), params + o.wk, k.data(), m, d, d);
  Gemm(h1.data(), params + o.wv, v.data(), m, d, d);

  // Causal multi-head attention + output projection, then residual.
  std::vector<float> concat(m * d), probs(batch * heads * s * s);
  CausalAttention(q.data(), k.data(), v.data(), concat.data(), probs.data(),
                  batch, s, heads, d / heads);
  std::vector<float> x2(m * d);
  Gemm(concat.data(), params + o.wo, x2.data(), m, d, d);
  for (size_t i = 0; i < m * d; ++i) x2[i] += in[i];

  // LN2 + FFN + residual.
  std::vector<float> h2(m * d), mean2(m), rstd2(m);
  LayerNorm(x2.data(), params + o.ln2_gamma, params + o.ln2_beta, h2.data(),
            mean2.data(), rstd2.data(), m, d);
  std::vector<float> u(m * f);
  Gemm(h2.data(), params + o.w1, u.data(), m, d, f);
  // Fused bias + GeLU; `u` keeps the post-bias pre-activation for backward.
  std::vector<float> g(m * f);
  AddBiasGelu(u.data(), params + o.b1, g.data(), m, f);
  out->assign(m * d, 0.0f);
  Gemm(g.data(), params + o.w2, out->data(), m, f, d);
  AddBias(out->data(), params + o.b2, m, d);
  for (size_t i = 0; i < m * d; ++i) (*out)[i] += x2[i];

  if (stash != nullptr) {
    stash->input = in;
    stash->saved.assign(kNumBlockStash, {});
    stash->saved[kMean1] = std::move(mean1);
    stash->saved[kRstd1] = std::move(rstd1);
    stash->saved[kH1] = std::move(h1);
    stash->saved[kQ] = std::move(q);
    stash->saved[kK] = std::move(k);
    stash->saved[kV] = std::move(v);
    stash->saved[kProbs] = std::move(probs);
    stash->saved[kConcat] = std::move(concat);
    stash->saved[kX2] = std::move(x2);
    stash->saved[kMean2] = std::move(mean2);
    stash->saved[kRstd2] = std::move(rstd2);
    stash->saved[kH2] = std::move(h2);
    stash->saved[kPreGelu] = std::move(u);
    stash->saved[kGelu] = std::move(g);
  }
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
  // Mean-pool over the sequence, then a linear projection.
  std::vector<float> pooled(batch * d, 0.0f);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t i = 0; i < s; ++i) {
      const float* row = in.data() + (b * s + i) * d;
      for (size_t c = 0; c < d; ++c) pooled[b * d + c] += row[c] / float(s);
    }
  }
  out->assign(batch * out_dim, 0.0f);
  Gemm(pooled.data(), params, out->data(), batch, d, out_dim);
  AddBias(out->data(), params + d * out_dim, batch, out_dim);
  if (stash != nullptr) {
    stash->input = in;
    stash->saved.assign(1, pooled);
  }
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
