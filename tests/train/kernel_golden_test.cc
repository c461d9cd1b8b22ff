#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adam.h"
#include "train/kernels.h"
#include "train/simd/dispatch.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace angelptm::train {
namespace {

/// Runs every kernel against train::reference:: under BOTH dispatch paths
/// (the AVX2 leg skips itself on hosts/builds without AVX2+FMA). The
/// scalar path shares per-element accumulation order with the reference,
/// so most checks are bitwise there; the vectorized path reassociates
/// sums and uses a polynomial exp, so it gets explicit tolerances. Also
/// forces the kernels onto a 4-thread pool regardless of the host's core
/// count, so the parallel code paths (chunk splitting, partial
/// reductions) are exercised deterministically even on single-core CI
/// machines.
class KernelGoldenTest : public ::testing::TestWithParam<simd::IsaPath> {
 protected:
  void SetUp() override {
    if (!simd::Supported(GetParam())) {
      GTEST_SKIP() << simd::IsaPathName(GetParam())
                   << " path unavailable on this host/build";
    }
    force_ = std::make_unique<simd::ScopedForceIsa>(GetParam());
    pool_ = std::make_unique<util::ThreadPool>(4);
    util::SetComputePoolOverride(pool_.get());
  }
  void TearDown() override {
    util::SetComputePoolOverride(nullptr);
    pool_.reset();
    force_.reset();
  }

  bool Vectorized() const { return GetParam() == simd::IsaPath::kAvx2; }

  /// Bitwise on the scalar path (ASSERT_NEAR with tolerance 0 is equality
  /// for non-NaN floats); `avx2_tol` on the vectorized path.
  double Tol(double avx2_tol) const { return Vectorized() ? avx2_tol : 0.0; }

  std::unique_ptr<simd::ScopedForceIsa> force_;
  std::unique_ptr<util::ThreadPool> pool_;
};

INSTANTIATE_TEST_SUITE_P(
    AllIsaPaths, KernelGoldenTest,
    ::testing::Values(simd::IsaPath::kScalar, simd::IsaPath::kAvx2),
    [](const ::testing::TestParamInfo<simd::IsaPath>& info) {
      return simd::IsaPathName(info.param);
    });

std::vector<float> RandomVector(util::Rng* rng, size_t n,
                                double stddev = 1.0) {
  std::vector<float> v(n);
  rng->FillGaussian(&v, stddev);
  return v;
}

// Odd shapes: nothing divides the scalar tile sizes (64/256), the AVX2
// micro-tile (6x16), the macro tiles (120/256/512), or typical grains —
// so every edge/tail path in both implementations runs — plus the
// degenerate m=1 / n=1 / k=1 edges.
struct Shape {
  size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},    {1, 5, 3},      {3, 1, 7},      {7, 3, 1},
    {65, 67, 63}, {129, 70, 257}, {33, 257, 31},  {121, 258, 513},
};

TEST_P(KernelGoldenTest, GemmMatchesReference) {
  util::Rng rng(11);
  for (const Shape& s : kShapes) {
    const auto a = RandomVector(&rng, s.m * s.k);
    const auto b = RandomVector(&rng, s.k * s.n);
    std::vector<float> got(s.m * s.n), want(s.m * s.n);
    Gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    reference::Gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    for (size_t i = 0; i < got.size(); ++i) {
      // Scalar: identical per-element accumulation order, bitwise equal.
      // AVX2: FMA and panel-ordered accumulation reassociate the sum.
      ASSERT_NEAR(got[i], want[i], Tol(1e-3 * (1.0 + std::abs(want[i]))))
          << "shape " << s.m << "x" << s.k << "x" << s.n << " at " << i;
    }
  }
}

TEST_P(KernelGoldenTest, GemmTransAMatchesReference) {
  util::Rng rng(12);
  for (const Shape& s : kShapes) {
    const auto a = RandomVector(&rng, s.k * s.m);
    const auto b = RandomVector(&rng, s.k * s.n);
    std::vector<float> got(s.m * s.n), want(s.m * s.n);
    GemmTransA(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    reference::GemmTransA(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], Tol(1e-3 * (1.0 + std::abs(want[i]))))
          << "shape " << s.m << "x" << s.k << "x" << s.n << " at " << i;
    }
  }
}

TEST_P(KernelGoldenTest, GemmTransBMatchesReference) {
  util::Rng rng(13);
  for (const Shape& s : kShapes) {
    const auto a = RandomVector(&rng, s.m * s.k);
    const auto b = RandomVector(&rng, s.n * s.k);
    std::vector<float> got(s.m * s.n), want(s.m * s.n);
    GemmTransB(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    reference::GemmTransB(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    for (size_t i = 0; i < got.size(); ++i) {
      // The reference accumulates in double, so even the scalar blocked
      // kernel (four float-pair double accumulators) is only
      // reassociation-close, not bitwise.
      const double tol = Vectorized()
                             ? 1e-3 * (1.0 + std::abs(want[i]))
                             : 1e-4;
      ASSERT_NEAR(got[i], want[i], tol)
          << "shape " << s.m << "x" << s.k << "x" << s.n << " at " << i;
    }
  }
}

TEST_P(KernelGoldenTest, AddBiasGeluMatchesUnfused) {
  util::Rng rng(14);
  for (const size_t m : {1u, 3u, 65u}) {
    for (const size_t n : {1u, 7u, 129u}) {
      const auto z0 = RandomVector(&rng, m * n);
      const auto bias = RandomVector(&rng, n);
      // Unfused path: AddBias then Gelu on a copy.
      std::vector<float> z_ref = z0;
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) z_ref[i * n + j] += bias[j];
      }
      std::vector<float> y_ref(m * n);
      reference::Gelu(z_ref.data(), y_ref.data(), m * n);

      std::vector<float> z = z0, y(m * n);
      AddBiasGelu(z.data(), bias.data(), y.data(), m, n);
      for (size_t i = 0; i < m * n; ++i) {
        // The bias add is a single IEEE addition on both paths: bitwise.
        ASSERT_EQ(z[i], z_ref[i]) << "pre-activation at " << i;
        // AVX2 GeLU uses a vectorized exp polynomial vs. the reference's
        // double tanh.
        ASSERT_NEAR(y[i], y_ref[i], Tol(1e-5)) << "activation at " << i;
      }
    }
  }
}

TEST_P(KernelGoldenTest, GeluRoundTripMatchesReference) {
  util::Rng rng(21);
  const size_t n = 4099;  // Not a multiple of any vector width or grain.
  const auto x = RandomVector(&rng, n, 2.0);
  std::vector<float> y(n), y_ref(n);
  Gelu(x.data(), y.data(), n);
  reference::Gelu(x.data(), y_ref.data(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(y[i], y_ref[i], Tol(1e-5)) << "gelu at " << i;
  }

  // Backward against a double-precision scalar recomputation.
  const auto dy = RandomVector(&rng, n);
  std::vector<float> dx(n);
  GeluBackward(x.data(), dy.data(), dx.data(), n);
  constexpr double kC = 0.7978845608028654;
  for (size_t i = 0; i < n; ++i) {
    const double v = x[i];
    const double u = kC * (v + 0.044715 * v * v * v);
    const double t = std::tanh(u);
    const double du = kC * (1.0 + 3.0 * 0.044715 * v * v);
    const double want = dy[i] * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du);
    ASSERT_NEAR(dx[i], want, 1e-5 * (1.0 + std::abs(want)))
        << "gelu grad at " << i;
  }
}

TEST_P(KernelGoldenTest, AddBiasGeluBackwardMatchesUnfused) {
  util::Rng rng(15);
  const size_t m = 65, n = 33;
  const auto z = RandomVector(&rng, m * n);
  const auto dy = RandomVector(&rng, m * n);
  std::vector<float> dz_ref(m * n), dbias_ref(n, 0.0f);
  GeluBackward(z.data(), dy.data(), dz_ref.data(), m * n);
  BiasBackward(dz_ref.data(), dbias_ref.data(), m, n);

  std::vector<float> dz(m * n), dbias(n, 123.0f);  // Poisoned: must be
                                                   // zeroed internally.
  AddBiasGeluBackward(z.data(), dy.data(), dz.data(), dbias.data(), m, n);
  // dz is elementwise, and the fused and unfused kernels use the same
  // per-lane math on each path: bitwise on both.
  for (size_t i = 0; i < m * n; ++i) ASSERT_EQ(dz[i], dz_ref[i]) << i;
  for (size_t j = 0; j < n; ++j) ASSERT_NEAR(dbias[j], dbias_ref[j], 1e-4);
}

TEST_P(KernelGoldenTest, LayerNormMatchesReference) {
  util::Rng rng(16);
  for (const size_t m : {1u, 2u, 67u}) {
    for (const size_t n : {1u, 31u, 257u}) {
      const auto x = RandomVector(&rng, m * n, 2.0);
      const auto gamma = RandomVector(&rng, n);
      const auto beta = RandomVector(&rng, n);
      std::vector<float> y(m * n), mean(m), rstd(m);
      std::vector<float> y_ref(m * n), mean_ref(m), rstd_ref(m);
      LayerNorm(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                rstd.data(), m, n);
      reference::LayerNorm(x.data(), gamma.data(), beta.data(), y_ref.data(),
                           mean_ref.data(), rstd_ref.data(), m, n);
      for (size_t i = 0; i < m; ++i) {
        // AVX2 accumulates row sums in float lanes before the double
        // horizontal reduction; the reference sums in double throughout.
        ASSERT_NEAR(mean[i], mean_ref[i], Tol(1e-4)) << "mean at " << i;
        ASSERT_NEAR(rstd[i], rstd_ref[i], Tol(1e-4)) << "rstd at " << i;
      }
      for (size_t i = 0; i < m * n; ++i) {
        ASSERT_NEAR(y[i], y_ref[i], Tol(5e-4)) << "y at " << i;
      }
    }
  }
}

TEST_P(KernelGoldenTest, LayerNormBackwardMatchesReference) {
  util::Rng rng(17);
  for (const size_t m : {1u, 5u, 67u}) {
    for (const size_t n : {1u, 31u, 129u}) {
      const auto x = RandomVector(&rng, m * n);
      auto gamma = RandomVector(&rng, n, 0.3);
      for (auto& g : gamma) g += 1.0f;
      const auto beta = RandomVector(&rng, n, 0.1);
      const auto dy = RandomVector(&rng, m * n);
      std::vector<float> y(m * n), mean(m), rstd(m);
      reference::LayerNorm(x.data(), gamma.data(), beta.data(), y.data(),
                           mean.data(), rstd.data(), m, n);

      std::vector<float> dx(m * n), dgamma(n, 55.0f), dbeta(n, -9.0f);
      std::vector<float> dx_ref(m * n), dgamma_ref(n), dbeta_ref(n);
      // Poisoned dgamma/dbeta: the kernel must zero them internally.
      LayerNormBackward(x.data(), gamma.data(), dy.data(), mean.data(),
                        rstd.data(), dx.data(), dgamma.data(), dbeta.data(),
                        m, n);
      reference::LayerNormBackward(x.data(), gamma.data(), dy.data(),
                                   mean.data(), rstd.data(), dx_ref.data(),
                                   dgamma_ref.data(), dbeta_ref.data(), m, n);
      for (size_t i = 0; i < m * n; ++i) {
        ASSERT_NEAR(dx[i], dx_ref[i], Tol(1e-3)) << "dx at " << i;
      }
      // dgamma/dbeta go through per-chunk partials: reassociation only.
      for (size_t j = 0; j < n; ++j) {
        ASSERT_NEAR(dgamma[j], dgamma_ref[j], 1e-3 * (1.0 + m)) << j;
        ASSERT_NEAR(dbeta[j], dbeta_ref[j], 1e-3 * (1.0 + m)) << j;
      }
    }
  }
}

TEST_P(KernelGoldenTest, SoftmaxCrossEntropyMatchesReference) {
  util::Rng rng(18);
  for (const size_t m : {1u, 3u, 65u}) {
    for (const size_t n : {2u, 17u, 129u}) {
      const auto logits = RandomVector(&rng, m * n, 2.0);
      std::vector<int> labels(m);
      for (size_t i = 0; i < m; ++i) labels[i] = int(i % n);
      std::vector<float> grad(m * n), grad_ref(m * n);
      const double loss = SoftmaxCrossEntropy(logits.data(), labels.data(),
                                              grad.data(), m, n);
      const double loss_ref = reference::SoftmaxCrossEntropy(
          logits.data(), labels.data(), grad_ref.data(), m, n);
      const double loss_tol = Vectorized() ? 1e-5 : 1e-9;
      EXPECT_NEAR(loss, loss_ref, loss_tol * (1.0 + std::abs(loss_ref)));
      for (size_t i = 0; i < m * n; ++i) {
        ASSERT_NEAR(grad[i], grad_ref[i], Tol(1e-5)) << "grad at " << i;
      }
    }
  }
}

// Causal attention shapes: the direct_sync_longseq block (8 x 256 tokens,
// 4 heads of 32), an odd one whose sizes divide no micro- or macro-tile,
// and s = 130, whose score block crosses the 120-row macro tile.
struct AttentionShape {
  size_t batch, s, heads, dh;
};
const AttentionShape kAttentionShapes[] = {
    {8, 256, 4, 32}, {2, 37, 3, 24}, {1, 130, 2, 16}};

/// Inputs and outputs of one attention forward + backward.
struct AttentionRun {
  std::vector<float> q, k, v, dout;
  std::vector<float> out, probs, dq, dk, dv;

  AttentionRun(util::Rng* rng, const AttentionShape& a) {
    const size_t rows = a.batch * a.s * a.heads * a.dh;
    q = RandomVector(rng, rows);
    k = RandomVector(rng, rows);
    v = RandomVector(rng, rows);
    dout = RandomVector(rng, rows);
    // Poisoned: every output element, the zeros above the diagonal of P
    // included, must be written by the kernel.
    out.assign(rows, 7.0f);
    probs.assign(a.batch * a.heads * a.s * a.s, 7.0f);
    dq.assign(rows, 7.0f);
    dk.assign(rows, 7.0f);
    dv.assign(rows, 7.0f);
  }

  template <typename Fwd, typename Bwd>
  void Run(const AttentionShape& a, Fwd fwd, Bwd bwd) {
    fwd(q.data(), k.data(), v.data(), out.data(), probs.data(), a.batch, a.s,
        a.heads, a.dh);
    bwd(q.data(), k.data(), v.data(), probs.data(), dout.data(), dq.data(),
        dk.data(), dv.data(), a.batch, a.s, a.heads, a.dh);
  }
};

TEST_P(KernelGoldenTest, CausalAttentionMatchesReference) {
  util::Rng rng(22);
  for (const AttentionShape& a : kAttentionShapes) {
    AttentionRun got(&rng, a);
    AttentionRun want = got;
    got.Run(a, CausalAttention, CausalAttentionBackward);
    want.Run(a, reference::CausalAttention,
             reference::CausalAttentionBackward);
    const std::string shape = std::to_string(a.batch) + "x" +
                              std::to_string(a.s) + " h" +
                              std::to_string(a.heads) + " dh" +
                              std::to_string(a.dh);
    for (size_t bh = 0; bh < a.batch * a.heads; ++bh) {
      for (size_t i = 0; i < a.s; ++i) {
        for (size_t j = 0; j < a.s; ++j) {
          const size_t at = (bh * a.s + i) * a.s + j;
          if (j > i) {
            ASSERT_EQ(got.probs[at], 0.0f) << shape << ": future leaked";
          } else {
            ASSERT_NEAR(got.probs[at], want.probs[at], 1e-5)
                << shape << ": P at " << at;
          }
        }
      }
    }
    auto expect_near = [&](const std::vector<float>& g,
                           const std::vector<float>& w, double tol,
                           const char* what) {
      for (size_t i = 0; i < g.size(); ++i) {
        ASSERT_NEAR(g[i], w[i], tol * (1.0 + std::abs(w[i])))
            << shape << ": " << what << " at " << i;
      }
    };
    // Both paths accumulate the GEMMs in float where the reference uses
    // double; the largest deviation seen is ~7e-7 (avx2 dV at s 256).
    expect_near(got.out, want.out, 1e-5, "O");
    expect_near(got.dq, want.dq, 1e-5, "dQ");
    expect_near(got.dk, want.dk, 1e-5, "dK");
    expect_near(got.dv, want.dv, 1e-5, "dV");
  }
}

/// Every (sample, head) pair is computed by the same fixed sequence of
/// GEMMs and row softmaxes wherever it runs, so attention is bitwise
/// identical at any compute thread count.
TEST_P(KernelGoldenTest, CausalAttentionBitwiseAcrossThreadCounts) {
  for (const AttentionShape& a : kAttentionShapes) {
    util::Rng rng(23);
    AttentionRun four(&rng, a);
    AttentionRun one = four;
    four.Run(a, CausalAttention, CausalAttentionBackward);
    {
      util::ThreadPool pool(1);
      util::SetComputePoolOverride(&pool);
      one.Run(a, CausalAttention, CausalAttentionBackward);
      util::SetComputePoolOverride(pool_.get());
    }
    ASSERT_EQ(one.out, four.out) << "O, s " << a.s;
    ASSERT_EQ(one.probs, four.probs) << "P, s " << a.s;
    ASSERT_EQ(one.dq, four.dq) << "dQ, s " << a.s;
    ASSERT_EQ(one.dk, four.dk) << "dK, s " << a.s;
    ASSERT_EQ(one.dv, four.dv) << "dV, s " << a.s;
  }
}

/// The PR-4 guarantee that must survive vectorization: the optimizer step
/// is bitwise identical across thread counts on EVERY dispatch path. The
/// AVX2 kernel earns this by aligning its vector loop to absolute
/// 8-element blocks and mirroring the vector math op-for-op in the
/// head/tail scalars; the scalar path earns it by being elementwise in a
/// fixed order.
TEST_P(KernelGoldenTest, AdamUpdateBitwiseStableAcrossThreadCounts) {
  util::Rng rng(19);
  core::AdamConfig config;
  config.weight_decay = 0.01;
  const size_t count = 65537;  // Not a multiple of the Adam grain (or 8).
  const auto grads = RandomVector(&rng, count);
  const auto p0 = RandomVector(&rng, count);
  const std::vector<float> m0(count, 0.1f), v0(count, 0.2f);

  std::vector<float> p_base, m_base, v_base;
  for (const int threads : {1, 4, 8}) {
    std::vector<float> p = p0, m = m0, v = v0;
    {
      util::ThreadPool pool(threads);
      util::SetComputePoolOverride(&pool);
      core::AdamUpdate(config, p.data(), m.data(), v.data(), grads.data(),
                       count, 3);
      util::SetComputePoolOverride(nullptr);
    }
    if (p_base.empty()) {
      p_base = std::move(p);
      m_base = std::move(m);
      v_base = std::move(v);
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(p[i], p_base[i]) << threads << " threads: param at " << i;
      ASSERT_EQ(m[i], m_base[i]) << threads << " threads: m at " << i;
      ASSERT_EQ(v[i], v_base[i]) << threads << " threads: v at " << i;
    }
  }
  util::SetComputePoolOverride(pool_.get());
}

/// The AVX2 Adam kernel is float math, so it deviates from the scalar
/// double-precision path — but only by float rounding, not by drift.
TEST(KernelCrossPathTest, AdamScalarAndAvx2Agree) {
  if (!simd::Supported(simd::IsaPath::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
  }
  util::Rng rng(20);
  core::AdamConfig config;
  config.weight_decay = 0.01;
  const size_t count = 10007;
  const auto grads = RandomVector(&rng, count);
  const auto p0 = RandomVector(&rng, count);
  const std::vector<float> m0(count, 0.1f), v0(count, 0.2f);

  std::vector<float> p_s = p0, m_s = m0, v_s = v0;
  {
    simd::ScopedForceIsa force(simd::IsaPath::kScalar);
    core::AdamUpdate(config, p_s.data(), m_s.data(), v_s.data(), grads.data(),
                     count, 3);
  }
  std::vector<float> p_a = p0, m_a = m0, v_a = v0;
  {
    simd::ScopedForceIsa force(simd::IsaPath::kAvx2);
    core::AdamUpdate(config, p_a.data(), m_a.data(), v_a.data(), grads.data(),
                     count, 3);
  }
  for (size_t i = 0; i < count; ++i) {
    ASSERT_NEAR(p_a[i], p_s[i], 1e-5 * (1.0 + std::abs(p_s[i]))) << i;
    ASSERT_NEAR(m_a[i], m_s[i], 1e-6) << i;
    ASSERT_NEAR(v_a[i], v_s[i], 1e-6) << i;
  }
}

}  // namespace
}  // namespace angelptm::train
