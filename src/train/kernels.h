#ifndef ANGELPTM_TRAIN_KERNELS_H_
#define ANGELPTM_TRAIN_KERNELS_H_

#include <cstddef>
#include <vector>

namespace angelptm::train {

/// Dense CPU kernels (fp32) used by the real training path. These are the
/// "GPU computations" of the reproduction — numerically real forward and
/// backward passes executed by the engine's compute stream against tensors
/// managed by the page-based memory subsystem.
///
/// All kernels run cache-blocked and data-parallel on the process-wide
/// compute pool (`util::ComputePool()`, sized from hardware_concurrency,
/// overridable with the `ANGELPTM_COMPUTE_THREADS` environment variable).
/// Work is split over row-blocks so no two workers ever write the same
/// cache line; reductions (`dgamma`/`dbeta`, the cross-entropy loss) go
/// through per-chunk partial buffers combined at the end, never through
/// shared accumulators.
///
/// Every kernel additionally dispatches at runtime (`simd::Dispatch()`,
/// overridable with `ANGELPTM_SIMD=scalar|avx2`) between a portable
/// scalar path and packed AVX2/FMA micro-kernels from `train/simd/`
/// (DESIGN.md §11). On the scalar path, results match the `reference::`
/// implementations below up to float-summation reassociation; the AVX2
/// path matches within the tolerances pinned by
/// tests/train/kernel_golden_test.cc (FMA reassociates sums, and
/// GeLU/softmax use a vectorized exp polynomial).
///
/// Conventions: row-major matrices, `m x k` times `k x n`.

/// C = A * B. A is m x k, B is k x n, C is m x n (overwritten).
void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n);

/// C = A^T * B. A is k x m, B is k x n, C is m x n.
void GemmTransA(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n);

/// C = A * B^T. A is m x k, B is n x k, C is m x n.
void GemmTransB(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n);

/// y[i] += bias[i % n] over an m x n matrix.
void AddBias(float* y, const float* bias, size_t m, size_t n);

/// grad_bias[j] = sum_i grad[i, j]. `grad_bias` is overwritten.
void BiasBackward(const float* grad, float* grad_bias, size_t m, size_t n);

/// GeLU (tanh approximation, as used by GPT) applied elementwise.
void Gelu(const float* x, float* y, size_t n);

/// dx = dy * gelu'(x).
void GeluBackward(const float* x, const float* dy, float* dx, size_t n);

/// Fused bias + GeLU forward over an m x n matrix: adds `bias` into `z`
/// in place (so callers can stash the post-bias pre-activation for
/// backward) and writes y = gelu(z + bias) in the same pass, saving a full
/// read+write sweep over the activations versus AddBias followed by Gelu.
void AddBiasGelu(float* z, const float* bias, float* y, size_t m, size_t n);

/// Fused backward of AddBiasGelu. `z` is the stashed post-bias
/// pre-activation; computes dz = dy * gelu'(z) and the bias gradient
/// dbias[j] = sum_i dz[i, j] in one pass. `dbias` is zeroed internally and
/// overwritten.
void AddBiasGeluBackward(const float* z, const float* dy, float* dz,
                         float* dbias, size_t m, size_t n);

/// Row-wise LayerNorm over an m x n matrix with learned gain/bias.
/// `mean`/`rstd` (size m) are saved for backward.
void LayerNorm(const float* x, const float* gamma, const float* beta,
               float* y, float* mean, float* rstd, size_t m, size_t n);

/// Backward of LayerNorm: produces dx and the parameter gradients.
/// `dgamma`/`dbeta` are zeroed internally and then overwritten with the
/// full column reductions — callers must NOT expect accumulation into
/// pre-existing values. (The historical contract required callers to
/// pre-zero them and silently accumulated; every in-tree caller passed
/// freshly zeroed buffers, so the overwrite semantics are a strict
/// foot-gun removal.) Internally the row loop runs in parallel with
/// per-chunk dgamma/dbeta partials reduced at the end, so there is no
/// shared-accumulator race.
void LayerNormBackward(const float* x, const float* gamma, const float* dy,
                       const float* mean, const float* rstd, float* dx,
                       float* dgamma, float* dbeta, size_t m, size_t n);

/// Row-wise softmax cross-entropy against integer labels. Returns the mean
/// loss; fills `grad` (m x n) with dloss/dlogits (already divided by m).
double SoftmaxCrossEntropy(const float* logits, const int* labels,
                           float* grad, size_t m, size_t n);

/// Mean squared error: returns mean over all elements of (pred-target)^2,
/// fills grad with dloss/dpred.
double MseLoss(const float* pred, const float* target, float* grad,
               size_t count);

/// Causal multi-head self-attention. q, k, v and `out` are
/// (batch*s) x (heads*dh) row-major, head h owning columns
/// [h*dh, (h+1)*dh). Per (sample, head): S = Q K^T, P = the causal row
/// softmax of S / sqrt(dh), O = P V, with both products on the GEMM
/// above. `probs` (batch x heads x s x s) receives P with exact zeros
/// above the diagonal; `out` and `probs` are overwritten.
void CausalAttention(const float* q, const float* k, const float* v,
                     float* out, float* probs, size_t batch, size_t s,
                     size_t heads, size_t dh);

/// Backward of CausalAttention from its saved `probs` and the output
/// gradient `dout`: dP = dO V^T, dV = P^T dO, dS = softmax backward of dP,
/// dQ = dS K / sqrt(dh), dK = dS^T Q / sqrt(dh). dq, dk and dv are
/// overwritten.
void CausalAttentionBackward(const float* q, const float* k, const float* v,
                             const float* probs, const float* dout,
                             float* dq, float* dk, float* dv, size_t batch,
                             size_t s, size_t heads, size_t dh);

/// Naive single-threaded implementations, retained verbatim from the
/// original scalar kernels. They are the golden references the parallel
/// kernels are tested against (tests/train/kernel_golden_test.cc) and the
/// single-thread baselines bench/kernel_bench.cc measures speedups from.
/// Semantics match the parallel kernels above (in particular,
/// LayerNormBackward overwrites dgamma/dbeta). The attention pair is the
/// original per-(sample, head) loops, which accumulate in double, so both
/// dispatch paths match it within the golden test's tolerances only.
namespace reference {

void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n);
void GemmTransA(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n);
void GemmTransB(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n);
void Gelu(const float* x, float* y, size_t n);
void LayerNorm(const float* x, const float* gamma, const float* beta,
               float* y, float* mean, float* rstd, size_t m, size_t n);
void LayerNormBackward(const float* x, const float* gamma, const float* dy,
                       const float* mean, const float* rstd, float* dx,
                       float* dgamma, float* dbeta, size_t m, size_t n);
double SoftmaxCrossEntropy(const float* logits, const int* labels,
                           float* grad, size_t m, size_t n);
void CausalAttention(const float* q, const float* k, const float* v,
                     float* out, float* probs, size_t batch, size_t s,
                     size_t heads, size_t dh);
void CausalAttentionBackward(const float* q, const float* k, const float* v,
                             const float* probs, const float* dout,
                             float* dq, float* dk, float* dv, size_t batch,
                             size_t s, size_t heads, size_t dh);

}  // namespace reference

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_KERNELS_H_
