#include "train/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "train/simd/dispatch.h"
#include "train/simd/kernels_avx2.h"
#include "train/simd/scratch.h"
#include "util/parallel_for.h"

namespace angelptm::train {
namespace {

constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)

inline bool UseAvx2() {
  return simd::Dispatch() == simd::IsaPath::kAvx2;
}

// Cache tiles. The inner GEMM loops stream a kTileK x kTileN panel of B
// (64 KiB) that stays resident in L2 across every row of a chunk, while the
// kTileN-float segment of the C row being updated stays in L1 across the
// whole k-tile.
constexpr size_t kTileK = 64;
constexpr size_t kTileN = 256;

// Minimum rows per parallel chunk for matrix kernels; below this the
// scheduling overhead beats the win.
constexpr size_t kMinRowGrain = 4;
constexpr size_t kElementGrain = 4096;  // Elementwise kernels (GeLU, bias).

inline double GeluScalar(double v) {
  return 0.5 * v * (1.0 + std::tanh(kGeluC * (v + 0.044715 * v * v * v)));
}

inline double GeluGradScalar(double v) {
  const double u = kGeluC * (v + 0.044715 * v * v * v);
  const double t = std::tanh(u);
  const double du = kGeluC * (1.0 + 3.0 * 0.044715 * v * v);
  return 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
}

/// Picks a row grain that yields roughly 4 chunks per worker (good load
/// balancing without flooding the queue) but never below `min_grain`.
size_t RowGrain(size_t rows, size_t min_grain) {
  const size_t workers = util::ComputePoolThreads();
  const size_t target_chunks = std::max<size_t>(1, 4 * workers);
  return std::max(min_grain, (rows + target_chunks - 1) / target_chunks);
}

/// C rows [i0, i1) of C = A * B, cache-blocked. Each worker owns a disjoint
/// row range of C, so no synchronization is needed.
void GemmRowBlock(const float* a, const float* b, float* c, size_t i0,
                  size_t i1, size_t k, size_t n) {
  std::memset(c + i0 * n, 0, (i1 - i0) * n * sizeof(float));
  for (size_t jb = 0; jb < n; jb += kTileN) {
    const size_t jend = std::min(n, jb + kTileN);
    for (size_t pb = 0; pb < k; pb += kTileK) {
      const size_t pend = std::min(k, pb + kTileK);
      for (size_t i = i0; i < i1; ++i) {
        const float* a_row = a + i * k;
        float* c_row = c + i * n;
        for (size_t p = pb; p < pend; ++p) {
          const float aip = a_row[p];
          if (aip == 0.0f) continue;
          const float* b_row = b + p * n;
          for (size_t j = jb; j < jend; ++j) {
            c_row[j] += aip * b_row[j];
          }
        }
      }
    }
  }
}

/// C rows [i0, i1) of C = A^T * B (A is k x m). The p loop sits outside the
/// i loop so the A reads (a[p*m + i]) are contiguous in i and the B row
/// segment stays hot across the whole row block.
void GemmTransARowBlock(const float* a, const float* b, float* c, size_t i0,
                        size_t i1, size_t m, size_t k, size_t n) {
  std::memset(c + i0 * n, 0, (i1 - i0) * n * sizeof(float));
  for (size_t jb = 0; jb < n; jb += kTileN) {
    const size_t jend = std::min(n, jb + kTileN);
    for (size_t p = 0; p < k; ++p) {
      const float* a_row = a + p * m;
      const float* b_row = b + p * n;
      for (size_t i = i0; i < i1; ++i) {
        const float api = a_row[i];
        if (api == 0.0f) continue;
        float* c_row = c + i * n;
        for (size_t j = jb; j < jend; ++j) {
          c_row[j] += api * b_row[j];
        }
      }
    }
  }
}

/// C rows [i0, i1) of C = A * B^T. Dot products over k with four
/// independent double accumulators to break the serial dependency chain
/// (same precision class as the reference's single double accumulator,
/// different association order).
void GemmTransBRowBlock(const float* a, const float* b, float* c, size_t i0,
                        size_t i1, size_t k, size_t n) {
  for (size_t i = i0; i < i1; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        s0 += double(a_row[p]) * b_row[p];
        s1 += double(a_row[p + 1]) * b_row[p + 1];
        s2 += double(a_row[p + 2]) * b_row[p + 2];
        s3 += double(a_row[p + 3]) * b_row[p + 3];
      }
      for (; p < k; ++p) s0 += double(a_row[p]) * b_row[p];
      c_row[j] = float(s0 + s1 + s2 + s3);
    }
  }
}

// Macro-tile sizes for the packed AVX2 GEMM (DESIGN.md §11): each grid
// cell owns an MC x NC block of C; per cell the A block (MC x KC packed,
// ~120 KiB) stays L2-resident while KC x NR micro-panels of the packed B
// panel stream through L1. All three GEMM variants route through this one
// driver — transposition is absorbed by the packing strides, so the
// micro-kernel never sees a strided inner loop.
constexpr size_t kMacroM = 120;  // Multiple of the 6-row micro-tile.
constexpr size_t kMacroK = 256;
constexpr size_t kMacroN = 512;  // Multiple of the 16-col micro-tile.

/// C = A * B where element A(i,p) = a[i*rs_a + p*cs_a] and
/// B(p,j) = b[p*rs_b + j*cs_b]. Threads split the M x N macro-tile grid
/// (grain 1 for load balancing); every cell packs into its own per-thread
/// scratch, so there is no write sharing and no allocation in steady
/// state. The grid decomposition is fixed by the tile sizes — not the
/// thread count — so results are bitwise stable across thread counts.
void GemmPackedAvx2(const float* a, size_t rs_a, size_t cs_a, const float* b,
                    size_t rs_b, size_t cs_b, float* c, size_t m, size_t k,
                    size_t n) {
  if (m == 0 || n == 0) return;
  const size_t num_m = (m + kMacroM - 1) / kMacroM;
  const size_t num_n = (n + kMacroN - 1) / kMacroN;
  util::ParallelFor(
      util::ComputePool(), 0, num_m * num_n, 1, [=](size_t lo, size_t hi) {
        for (size_t cell = lo; cell < hi; ++cell) {
          const size_t i0 = (cell / num_n) * kMacroM;
          const size_t j0 = (cell % num_n) * kMacroN;
          const size_t mc = std::min(kMacroM, m - i0);
          const size_t nc = std::min(kMacroN, n - j0);
          for (size_t i = i0; i < i0 + mc; ++i) {
            std::memset(c + i * n + j0, 0, nc * sizeof(float));
          }
          const size_t mc_pad =
              (mc + simd::avx2::kMr - 1) / simd::avx2::kMr * simd::avx2::kMr;
          const size_t nc_pad =
              (nc + simd::avx2::kNr - 1) / simd::avx2::kNr * simd::avx2::kNr;
          float* pa = simd::ThreadScratch(simd::ScratchSlot::kPackA,
                                          mc_pad * kMacroK);
          float* pb = simd::ThreadScratch(simd::ScratchSlot::kPackB,
                                          kMacroK * nc_pad);
          for (size_t p0 = 0; p0 < k; p0 += kMacroK) {
            const size_t kc = std::min(kMacroK, k - p0);
            simd::avx2::PackA(a + i0 * rs_a + p0 * cs_a, rs_a, cs_a, mc, kc,
                              pa);
            simd::avx2::PackB(b + p0 * rs_b + j0 * cs_b, rs_b, cs_b, kc, nc,
                              pb);
            simd::avx2::MacroKernel(pa, pb, c + i0 * n + j0, n, mc, kc, nc);
          }
        }
      });
}

/// Copies one head's s x dh column block out of a row-major matrix with
/// leading dimension `ld` into a contiguous panel, and back.
void GatherHead(const float* src, size_t ld, size_t s, size_t dh,
                float* panel) {
  for (size_t i = 0; i < s; ++i) {
    std::memcpy(panel + i * dh, src + i * ld, dh * sizeof(float));
  }
}

void ScatterHead(const float* panel, size_t s, size_t dh, float* dst,
                 size_t ld) {
  for (size_t i = 0; i < s; ++i) {
    std::memcpy(dst + i * ld, panel + i * dh, dh * sizeof(float));
  }
}

/// Causal row softmax of one s x s score block; see
/// simd::avx2::CausalSoftmax for the contract.
void CausalSoftmax(const float* scores, float* probs, size_t s, float scale,
                   bool use_avx2) {
  if (use_avx2) {
    simd::avx2::CausalSoftmax(scores, probs, s, scale);
    return;
  }
  for (size_t i = 0; i < s; ++i) {
    const float* row = scores + i * s;
    float* p = probs + i * s;
    double max_score = row[0];
    for (size_t j = 1; j <= i; ++j) {
      max_score = std::max<double>(max_score, row[j]);
    }
    double denom = 0.0;
    for (size_t j = 0; j <= i; ++j) {
      const double e = std::exp(scale * (row[j] - max_score));
      p[j] = float(e);
      denom += e;
    }
    for (size_t j = 0; j <= i; ++j) p[j] = float(p[j] / denom);
    std::memset(p + i + 1, 0, (s - i - 1) * sizeof(float));
  }
}

/// In-place causal softmax backward (dP in, scaled dS out); see
/// simd::avx2::CausalSoftmaxBackward.
void CausalSoftmaxBackward(const float* probs, float* ds, size_t s,
                           float scale, bool use_avx2) {
  if (use_avx2) {
    simd::avx2::CausalSoftmaxBackward(probs, ds, s, scale);
    return;
  }
  for (size_t i = 0; i < s; ++i) {
    const float* p = probs + i * s;
    float* d = ds + i * s;
    double row_dot = 0.0;
    for (size_t j = 0; j <= i; ++j) row_dot += double(p[j]) * d[j];
    for (size_t j = 0; j <= i; ++j) {
      d[j] = float(scale * (p[j] * (d[j] - row_dot)));
    }
    std::memset(d + i + 1, 0, (s - i - 1) * sizeof(float));
  }
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n) {
  if (UseAvx2()) {
    GemmPackedAvx2(a, k, 1, b, n, 1, c, m, k, n);
    return;
  }
  util::ParallelFor(util::ComputePool(), 0, m, RowGrain(m, kMinRowGrain),
                    [=](size_t i0, size_t i1) {
                      GemmRowBlock(a, b, c, i0, i1, k, n);
                    });
}

void GemmTransA(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n) {
  if (UseAvx2()) {
    // A is k x m: element (i, p) lives at a[p*m + i].
    GemmPackedAvx2(a, 1, m, b, n, 1, c, m, k, n);
    return;
  }
  util::ParallelFor(util::ComputePool(), 0, m, RowGrain(m, kMinRowGrain),
                    [=](size_t i0, size_t i1) {
                      GemmTransARowBlock(a, b, c, i0, i1, m, k, n);
                    });
}

void GemmTransB(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n) {
  if (UseAvx2()) {
    // B is n x k: element (p, j) lives at b[j*k + p]. The strided reads
    // happen once, in PackB — not in the O(m*k*n) inner loop, which is
    // what made the historical strided-B kernel ~2x slower than the
    // other variants.
    GemmPackedAvx2(a, k, 1, b, 1, k, c, m, k, n);
    return;
  }
  util::ParallelFor(util::ComputePool(), 0, m, RowGrain(m, kMinRowGrain),
                    [=](size_t i0, size_t i1) {
                      GemmTransBRowBlock(a, b, c, i0, i1, k, n);
                    });
}

void AddBias(float* y, const float* bias, size_t m, size_t n) {
  util::ParallelFor(util::ComputePool(), 0, m, RowGrain(m, 16),
                    [=](size_t i0, size_t i1) {
                      for (size_t i = i0; i < i1; ++i) {
                        float* row = y + i * n;
                        for (size_t j = 0; j < n; ++j) row[j] += bias[j];
                      }
                    });
}

void BiasBackward(const float* grad, float* grad_bias, size_t m, size_t n) {
  // Column-parallel: each worker owns a disjoint column slice of the
  // reduction, so the row sweep needs no atomics.
  util::ParallelFor(util::ComputePool(), 0, n, RowGrain(n, 16),
                    [=](size_t j0, size_t j1) {
                      for (size_t j = j0; j < j1; ++j) grad_bias[j] = 0.0f;
                      for (size_t i = 0; i < m; ++i) {
                        const float* row = grad + i * n;
                        for (size_t j = j0; j < j1; ++j) {
                          grad_bias[j] += row[j];
                        }
                      }
                    });
}

void Gelu(const float* x, float* y, size_t n) {
  if (UseAvx2()) {
    util::ParallelFor(util::ComputePool(), 0, n, kElementGrain,
                      [=](size_t lo, size_t hi) {
                        simd::avx2::GeluBlock(x + lo, y + lo, hi - lo);
                      });
    return;
  }
  util::ParallelFor(util::ComputePool(), 0, n, kElementGrain,
                    [=](size_t lo, size_t hi) {
                      for (size_t i = lo; i < hi; ++i) {
                        y[i] = float(GeluScalar(x[i]));
                      }
                    });
}

void GeluBackward(const float* x, const float* dy, float* dx, size_t n) {
  if (UseAvx2()) {
    util::ParallelFor(util::ComputePool(), 0, n, kElementGrain,
                      [=](size_t lo, size_t hi) {
                        simd::avx2::GeluBackwardBlock(x + lo, dy + lo, dx + lo,
                                                      hi - lo);
                      });
    return;
  }
  util::ParallelFor(util::ComputePool(), 0, n, kElementGrain,
                    [=](size_t lo, size_t hi) {
                      for (size_t i = lo; i < hi; ++i) {
                        dx[i] = float(dy[i] * GeluGradScalar(x[i]));
                      }
                    });
}

void AddBiasGelu(float* z, const float* bias, float* y, size_t m, size_t n) {
  if (UseAvx2()) {
    util::ParallelFor(util::ComputePool(), 0, m, RowGrain(m, 8),
                      [=](size_t i0, size_t i1) {
                        simd::avx2::AddBiasGeluRows(z + i0 * n, bias,
                                                    y + i0 * n, i1 - i0, n);
                      });
    return;
  }
  util::ParallelFor(util::ComputePool(), 0, m, RowGrain(m, 8),
                    [=](size_t i0, size_t i1) {
                      for (size_t i = i0; i < i1; ++i) {
                        float* z_row = z + i * n;
                        float* y_row = y + i * n;
                        for (size_t j = 0; j < n; ++j) {
                          const float zj = z_row[j] + bias[j];
                          z_row[j] = zj;
                          y_row[j] = float(GeluScalar(zj));
                        }
                      }
                    });
}

void AddBiasGeluBackward(const float* z, const float* dy, float* dz,
                         float* dbias, size_t m, size_t n) {
  // Column-parallel for the same reason as BiasBackward: the dbias
  // reduction stays race-free, and dz is elementwise either way.
  if (UseAvx2()) {
    util::ParallelFor(util::ComputePool(), 0, n, RowGrain(n, 16),
                      [=](size_t j0, size_t j1) {
                        simd::avx2::AddBiasGeluBackwardCols(z, dy, dz, dbias,
                                                            m, n, j0, j1);
                      });
    return;
  }
  util::ParallelFor(util::ComputePool(), 0, n, RowGrain(n, 16),
                    [=](size_t j0, size_t j1) {
                      for (size_t j = j0; j < j1; ++j) dbias[j] = 0.0f;
                      for (size_t i = 0; i < m; ++i) {
                        const float* z_row = z + i * n;
                        const float* dy_row = dy + i * n;
                        float* dz_row = dz + i * n;
                        for (size_t j = j0; j < j1; ++j) {
                          const float d =
                              float(dy_row[j] * GeluGradScalar(z_row[j]));
                          dz_row[j] = d;
                          dbias[j] += d;
                        }
                      }
                    });
}

void LayerNorm(const float* x, const float* gamma, const float* beta,
               float* y, float* mean, float* rstd, size_t m, size_t n) {
  constexpr double kEps = 1e-5;
  if (UseAvx2()) {
    util::ParallelFor(util::ComputePool(), 0, m, RowGrain(m, kMinRowGrain),
                      [=](size_t i0, size_t i1) {
                        simd::avx2::LayerNormRows(x + i0 * n, gamma, beta,
                                                  y + i0 * n, mean + i0,
                                                  rstd + i0, i1 - i0, n);
                      });
    return;
  }
  util::ParallelFor(
      util::ComputePool(), 0, m, RowGrain(m, kMinRowGrain),
      [=](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i) {
          const float* row = x + i * n;
          double sum = 0.0;
          for (size_t j = 0; j < n; ++j) sum += row[j];
          const double mu = sum / n;
          double var = 0.0;
          for (size_t j = 0; j < n; ++j) {
            const double d = row[j] - mu;
            var += d * d;
          }
          var /= n;
          const double rs = 1.0 / std::sqrt(var + kEps);
          mean[i] = float(mu);
          rstd[i] = float(rs);
          float* out = y + i * n;
          for (size_t j = 0; j < n; ++j) {
            out[j] = float((row[j] - mu) * rs * gamma[j] + beta[j]);
          }
        }
      });
}

void LayerNormBackward(const float* x, const float* gamma, const float* dy,
                       const float* mean, const float* rstd, float* dx,
                       float* dgamma, float* dbeta, size_t m, size_t n) {
  util::ThreadPool* pool = util::ComputePool();
  const size_t grain = RowGrain(m, kMinRowGrain);
  const size_t num_chunks = util::ParallelForNumChunks(0, m, grain);
  // Per-chunk partials: chunk c accumulates dgamma into partials[c*2n, n)
  // and dbeta into partials[c*2n + n, n); the column-parallel reduction
  // below folds them into the outputs. This is what makes the row loop
  // safe to parallelize — the historical code accumulated straight into
  // dgamma/dbeta, which would race across row chunks.
  std::vector<float> partials(num_chunks * 2 * n, 0.0f);
  float* partials_base = partials.data();
  const bool use_avx2 = UseAvx2();
  util::ParallelForChunks(
      pool, 0, m, grain,
      [=](size_t chunk, size_t i0, size_t i1) {
        float* pgamma = partials_base + chunk * 2 * n;
        float* pbeta = pgamma + n;
        if (use_avx2) {
          simd::avx2::LayerNormBackwardRows(x + i0 * n, gamma, dy + i0 * n,
                                            mean + i0, rstd + i0, dx + i0 * n,
                                            pgamma, pbeta, i1 - i0, n);
          return;
        }
        for (size_t i = i0; i < i1; ++i) {
          const float* x_row = x + i * n;
          const float* dy_row = dy + i * n;
          float* dx_row = dx + i * n;
          const double mu = mean[i];
          const double rs = rstd[i];
          double sum_dy_hat = 0.0, sum_dy_hat_xhat = 0.0;
          for (size_t j = 0; j < n; ++j) {
            const double xhat = (x_row[j] - mu) * rs;
            const double dy_hat = double(dy_row[j]) * gamma[j];
            sum_dy_hat += dy_hat;
            sum_dy_hat_xhat += dy_hat * xhat;
            pgamma[j] += float(dy_row[j] * xhat);
            pbeta[j] += dy_row[j];
          }
          for (size_t j = 0; j < n; ++j) {
            const double xhat = (x_row[j] - mu) * rs;
            const double dy_hat = double(dy_row[j]) * gamma[j];
            dx_row[j] = float(
                rs * (dy_hat - sum_dy_hat / n - xhat * sum_dy_hat_xhat / n));
          }
        }
      });
  util::ParallelFor(pool, 0, n, RowGrain(n, 16),
                    [=](size_t j0, size_t j1) {
                      for (size_t j = j0; j < j1; ++j) {
                        float dg = 0.0f, db = 0.0f;
                        for (size_t c = 0; c < num_chunks; ++c) {
                          dg += partials_base[c * 2 * n + j];
                          db += partials_base[c * 2 * n + n + j];
                        }
                        dgamma[j] = dg;
                        dbeta[j] = db;
                      }
                    });
}

double SoftmaxCrossEntropy(const float* logits, const int* labels,
                           float* grad, size_t m, size_t n) {
  const size_t grain = RowGrain(m, kMinRowGrain);
  const size_t num_chunks = util::ParallelForNumChunks(0, m, grain);
  std::vector<double> partial_loss(num_chunks, 0.0);
  double* partial_base = partial_loss.data();
  const bool use_avx2 = UseAvx2();
  util::ParallelForChunks(
      util::ComputePool(), 0, m, grain,
      [=](size_t chunk, size_t i0, size_t i1) {
        if (use_avx2) {
          partial_base[chunk] = simd::avx2::SoftmaxXentRows(
              logits + i0 * n, labels + i0, grad + i0 * n, i1 - i0, n,
              1.0 / double(m));
          return;
        }
        double loss = 0.0;
        for (size_t i = i0; i < i1; ++i) {
          const float* row = logits + i * n;
          float* grad_row = grad + i * n;
          double max_logit = row[0];
          for (size_t j = 1; j < n; ++j) {
            max_logit = std::max<double>(max_logit, row[j]);
          }
          double denom = 0.0;
          for (size_t j = 0; j < n; ++j) denom += std::exp(row[j] - max_logit);
          const int label = labels[i];
          loss += -(row[label] - max_logit - std::log(denom));
          for (size_t j = 0; j < n; ++j) {
            const double p = std::exp(row[j] - max_logit) / denom;
            grad_row[j] =
                float((p - (int(j) == label ? 1.0 : 0.0)) / double(m));
          }
        }
        partial_base[chunk] = loss;
      });
  double total_loss = 0.0;
  for (size_t c = 0; c < num_chunks; ++c) total_loss += partial_loss[c];
  return total_loss / m;
}

double MseLoss(const float* pred, const float* target, float* grad,
               size_t count) {
  const size_t grain = std::max<size_t>(kElementGrain,
                                        RowGrain(count, kElementGrain));
  const size_t num_chunks = util::ParallelForNumChunks(0, count, grain);
  std::vector<double> partial(num_chunks, 0.0);
  double* partial_base = partial.data();
  util::ParallelForChunks(util::ComputePool(), 0, count, grain,
                          [=](size_t chunk, size_t lo, size_t hi) {
                            double total = 0.0;
                            for (size_t i = lo; i < hi; ++i) {
                              const double d = double(pred[i]) - target[i];
                              total += d * d;
                              grad[i] = float(2.0 * d / double(count));
                            }
                            partial_base[chunk] = total;
                          });
  double total = 0.0;
  for (size_t c = 0; c < num_chunks; ++c) total += partial[c];
  return total / double(count);
}

void CausalAttention(const float* q, const float* k, const float* v,
                     float* out, float* probs, size_t batch, size_t s,
                     size_t heads, size_t dh) {
  const size_t d = heads * dh, panel = s * dh;
  const float scale = float(1.0 / std::sqrt(double(dh)));
  const bool use_avx2 = UseAvx2();
  // Each (sample, head) pair owns its probs block and its column slice of
  // `out`, so pairs run in parallel without synchronization; the GEMMs
  // inside nest their own ParallelFor.
  util::ParallelFor(
      util::ComputePool(), 0, batch * heads, 1, [=](size_t lo, size_t hi) {
        float* qp = simd::ThreadScratch(simd::ScratchSlot::kAttention,
                                        4 * panel + s * s);
        float* kp = qp + panel;
        float* vp = kp + panel;
        float* op = vp + panel;
        float* scores = op + panel;
        for (size_t bh = lo; bh < hi; ++bh) {
          const size_t offset = (bh / heads) * s * d + (bh % heads) * dh;
          float* p = probs + bh * s * s;
          GatherHead(q + offset, d, s, dh, qp);
          GatherHead(k + offset, d, s, dh, kp);
          GatherHead(v + offset, d, s, dh, vp);
          GemmTransB(qp, kp, scores, s, dh, s);  // S = Q K^T.
          CausalSoftmax(scores, p, s, scale, use_avx2);
          Gemm(p, vp, op, s, s, dh);  // O = P V.
          ScatterHead(op, s, dh, out + offset, d);
        }
      });
}

void CausalAttentionBackward(const float* q, const float* k, const float* v,
                             const float* probs, const float* dout,
                             float* dq, float* dk, float* dv, size_t batch,
                             size_t s, size_t heads, size_t dh) {
  const size_t d = heads * dh, panel = s * dh;
  const float scale = float(1.0 / std::sqrt(double(dh)));
  const bool use_avx2 = UseAvx2();
  util::ParallelFor(
      util::ComputePool(), 0, batch * heads, 1, [=](size_t lo, size_t hi) {
        float* qp = simd::ThreadScratch(simd::ScratchSlot::kAttention,
                                        7 * panel + s * s);
        float* kp = qp + panel;
        float* vp = kp + panel;
        float* dop = vp + panel;
        float* dqp = dop + panel;
        float* dkp = dqp + panel;
        float* dvp = dkp + panel;
        float* ds = dvp + panel;
        for (size_t bh = lo; bh < hi; ++bh) {
          const size_t offset = (bh / heads) * s * d + (bh % heads) * dh;
          const float* p = probs + bh * s * s;
          GatherHead(q + offset, d, s, dh, qp);
          GatherHead(k + offset, d, s, dh, kp);
          GatherHead(v + offset, d, s, dh, vp);
          GatherHead(dout + offset, d, s, dh, dop);
          GemmTransB(dop, vp, ds, s, dh, s);   // dP = dO V^T.
          GemmTransA(p, dop, dvp, s, s, dh);   // dV = P^T dO.
          CausalSoftmaxBackward(p, ds, s, scale, use_avx2);  // dS * scale.
          Gemm(ds, kp, dqp, s, s, dh);         // dQ = dS K.
          GemmTransA(ds, qp, dkp, s, s, dh);   // dK = dS^T Q.
          ScatterHead(dqp, s, dh, dq + offset, d);
          ScatterHead(dkp, s, dh, dk + offset, d);
          ScatterHead(dvp, s, dh, dv + offset, d);
        }
      });
}

namespace reference {

void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n) {
  std::memset(c, 0, m * n * sizeof(float));
  // ikj loop order: streams through B and C rows, decent cache behaviour
  // without tiling machinery.
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0f) continue;
      const float* b_row = b + p * n;
      float* c_row = c + i * n;
      for (size_t j = 0; j < n; ++j) {
        c_row[j] += aip * b_row[j];
      }
    }
  }
}

void GemmTransA(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n) {
  std::memset(c, 0, m * n * sizeof(float));
  for (size_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (size_t i = 0; i < m; ++i) {
      const float api = a_row[i];
      if (api == 0.0f) continue;
      float* c_row = c + i * n;
      for (size_t j = 0; j < n; ++j) {
        c_row[j] += api * b_row[j];
      }
    }
  }
}

void GemmTransB(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      double sum = 0.0;
      for (size_t p = 0; p < k; ++p) {
        sum += double(a_row[p]) * b_row[p];
      }
      c_row[j] = float(sum);
    }
  }
}

void Gelu(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = float(GeluScalar(x[i]));
}

void LayerNorm(const float* x, const float* gamma, const float* beta,
               float* y, float* mean, float* rstd, size_t m, size_t n) {
  constexpr double kEps = 1e-5;
  for (size_t i = 0; i < m; ++i) {
    const float* row = x + i * n;
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) sum += row[j];
    const double mu = sum / n;
    double var = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const double d = row[j] - mu;
      var += d * d;
    }
    var /= n;
    const double rs = 1.0 / std::sqrt(var + kEps);
    mean[i] = float(mu);
    rstd[i] = float(rs);
    float* out = y + i * n;
    for (size_t j = 0; j < n; ++j) {
      out[j] = float((row[j] - mu) * rs * gamma[j] + beta[j]);
    }
  }
}

void LayerNormBackward(const float* x, const float* gamma, const float* dy,
                       const float* mean, const float* rstd, float* dx,
                       float* dgamma, float* dbeta, size_t m, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    dgamma[j] = 0.0f;
    dbeta[j] = 0.0f;
  }
  for (size_t i = 0; i < m; ++i) {
    const float* x_row = x + i * n;
    const float* dy_row = dy + i * n;
    float* dx_row = dx + i * n;
    const double mu = mean[i];
    const double rs = rstd[i];
    double sum_dy_hat = 0.0, sum_dy_hat_xhat = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const double xhat = (x_row[j] - mu) * rs;
      const double dy_hat = double(dy_row[j]) * gamma[j];
      sum_dy_hat += dy_hat;
      sum_dy_hat_xhat += dy_hat * xhat;
      dgamma[j] += float(dy_row[j] * xhat);
      dbeta[j] += dy_row[j];
    }
    for (size_t j = 0; j < n; ++j) {
      const double xhat = (x_row[j] - mu) * rs;
      const double dy_hat = double(dy_row[j]) * gamma[j];
      dx_row[j] = float(
          rs * (dy_hat - sum_dy_hat / n - xhat * sum_dy_hat_xhat / n));
    }
  }
}

double SoftmaxCrossEntropy(const float* logits, const int* labels,
                           float* grad, size_t m, size_t n) {
  double total_loss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const float* row = logits + i * n;
    float* grad_row = grad + i * n;
    double max_logit = row[0];
    for (size_t j = 1; j < n; ++j) {
      max_logit = std::max<double>(max_logit, row[j]);
    }
    double denom = 0.0;
    for (size_t j = 0; j < n; ++j) denom += std::exp(row[j] - max_logit);
    const int label = labels[i];
    total_loss += -(row[label] - max_logit - std::log(denom));
    for (size_t j = 0; j < n; ++j) {
      const double p = std::exp(row[j] - max_logit) / denom;
      grad_row[j] = float((p - (int(j) == label ? 1.0 : 0.0)) / double(m));
    }
  }
  return total_loss / m;
}

void CausalAttention(const float* q, const float* k, const float* v,
                     float* out, float* probs, size_t batch, size_t s,
                     size_t heads, size_t dh) {
  const size_t d = heads * dh;
  const double scale = 1.0 / std::sqrt(double(dh));
  std::memset(out, 0, batch * s * d * sizeof(float));
  std::memset(probs, 0, batch * heads * s * s * sizeof(float));
  for (size_t bh = 0; bh < batch * heads; ++bh) {
    const size_t b = bh / heads;
    const size_t head = bh % heads;
    float* p = probs + (b * heads + head) * s * s;
    // Causal scores + row softmax.
    for (size_t i = 0; i < s; ++i) {
      const float* qi = q + (b * s + i) * d + head * dh;
      double max_score = -1e30;
      std::vector<double> scores(i + 1);
      for (size_t j = 0; j <= i; ++j) {  // Causal: only j <= i.
        const float* kj = k + (b * s + j) * d + head * dh;
        double dot = 0;
        for (size_t c = 0; c < dh; ++c) dot += double(qi[c]) * kj[c];
        scores[j] = dot * scale;
        max_score = std::max(max_score, scores[j]);
      }
      double denom = 0;
      for (size_t j = 0; j <= i; ++j) {
        scores[j] = std::exp(scores[j] - max_score);
        denom += scores[j];
      }
      for (size_t j = 0; j <= i; ++j) {
        p[i * s + j] = float(scores[j] / denom);
      }
      // Weighted sum of values.
      float* oi = out + (b * s + i) * d + head * dh;
      for (size_t j = 0; j <= i; ++j) {
        const float* vj = v + (b * s + j) * d + head * dh;
        const float pij = p[i * s + j];
        for (size_t c = 0; c < dh; ++c) oi[c] += pij * vj[c];
      }
    }
  }
}

void CausalAttentionBackward(const float* q, const float* k, const float* v,
                             const float* probs, const float* dout,
                             float* dq, float* dk, float* dv, size_t batch,
                             size_t s, size_t heads, size_t dh) {
  const size_t d = heads * dh;
  const double scale = 1.0 / std::sqrt(double(dh));
  std::memset(dq, 0, batch * s * d * sizeof(float));
  std::memset(dk, 0, batch * s * d * sizeof(float));
  std::memset(dv, 0, batch * s * d * sizeof(float));
  std::vector<double> dp(s * s), ds(s * s);
  for (size_t bh = 0; bh < batch * heads; ++bh) {
    const size_t b = bh / heads;
    const size_t head = bh % heads;
    const float* p = probs + (b * heads + head) * s * s;
    // dP = dO V^T ; dV = P^T dO (causal: j <= i only).
    std::fill(dp.begin(), dp.end(), 0.0);
    for (size_t i = 0; i < s; ++i) {
      const float* doi = dout + (b * s + i) * d + head * dh;
      for (size_t j = 0; j <= i; ++j) {
        const float* vj = v + (b * s + j) * d + head * dh;
        float* dvj = dv + (b * s + j) * d + head * dh;
        double dot = 0;
        const float pij = p[i * s + j];
        for (size_t c = 0; c < dh; ++c) {
          dot += double(doi[c]) * vj[c];
          dvj[c] += pij * doi[c];
        }
        dp[i * s + j] = dot;
      }
    }
    // Softmax backward (masked entries have P = 0, so dS = 0).
    for (size_t i = 0; i < s; ++i) {
      double row_dot = 0;
      for (size_t j = 0; j <= i; ++j) {
        row_dot += dp[i * s + j] * p[i * s + j];
      }
      for (size_t j = 0; j <= i; ++j) {
        ds[i * s + j] = p[i * s + j] * (dp[i * s + j] - row_dot);
      }
    }
    // dQ = dS K * scale ; dK = dS^T Q * scale.
    for (size_t i = 0; i < s; ++i) {
      float* dqi = dq + (b * s + i) * d + head * dh;
      const float* qi = q + (b * s + i) * d + head * dh;
      for (size_t j = 0; j <= i; ++j) {
        const float* kj = k + (b * s + j) * d + head * dh;
        float* dkj = dk + (b * s + j) * d + head * dh;
        const double dsij = ds[i * s + j] * scale;
        for (size_t c = 0; c < dh; ++c) {
          dqi[c] += float(dsij * kj[c]);
          dkj[c] += float(dsij * qi[c]);
        }
      }
    }
  }
}

}  // namespace reference

}  // namespace angelptm::train
