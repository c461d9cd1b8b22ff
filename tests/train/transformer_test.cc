#include "train/transformer.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/adam.h"
#include "stash_test_util.h"
#include "train/kernels.h"
#include "util/random.h"

namespace angelptm::train {
namespace {

TransformerConfig TinyConfig() {
  TransformerConfig config;
  config.seq_len = 4;
  config.d_model = 8;
  config.num_heads = 2;
  config.d_ffn = 16;
  config.num_blocks = 2;
  config.out_dim = 2;
  return config;
}

TEST(TransformerTest, ParamCounts) {
  TinyTransformer model(TinyConfig());
  EXPECT_EQ(model.num_layers(), 3);  // 2 blocks + head.
  // Block: 4d^2 + 2 d f + f + 5d  with d=8, f=16.
  EXPECT_EQ(model.LayerParamCount(0), 4u * 64 + 2 * 8 * 16 + 16 + 5 * 8);
  EXPECT_EQ(model.LayerParamCount(1), model.LayerParamCount(0));
  EXPECT_EQ(model.LayerParamCount(2), 8u * 2 + 2);  // Head.
  EXPECT_EQ(model.InputSize(), 4u * 8);
  EXPECT_EQ(model.OutputSize(), 2u);
}

TEST(TransformerTest, ForwardShapesAndFiniteness) {
  TinyTransformer model(TinyConfig());
  util::Rng rng(1);
  const size_t batch = 3;
  std::vector<float> x(batch * model.InputSize());
  rng.FillGaussian(&x, 1.0);
  std::vector<float> acts = x;
  for (int l = 0; l < model.num_layers(); ++l) {
    const auto params = model.InitLayerParams(l, &rng);
    std::vector<float> next;
    model.Forward(l, params.data(), acts, batch, &next, nullptr);
    acts = std::move(next);
    for (float v : acts) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(acts.size(), batch * model.OutputSize());
}

TEST(TransformerTest, CausalMaskBlocksFutureTokens) {
  // Changing the input at position t must not change block outputs at
  // positions i < t. At s = 130 the score block crosses the GEMM's
  // 120-row macro tile, and t = 125 sits past that boundary.
  struct Case {
    size_t s, t;
  };
  for (const Case& c : {Case{4, 2}, Case{130, 125}}) {
    TransformerConfig config = TinyConfig();
    config.seq_len = c.s;
    TinyTransformer model(config);
    util::Rng rng(2);
    const auto params = model.InitLayerParams(0, &rng);
    const size_t batch = 1, s = c.s, d = 8;
    std::vector<float> x(batch * s * d);
    rng.FillGaussian(&x, 1.0);
    std::vector<float> base;
    model.Forward(0, params.data(), x, batch, &base, nullptr);

    std::vector<float> perturbed = x;
    for (size_t col = 0; col < d; ++col) perturbed[c.t * d + col] += 1.0f;
    std::vector<float> out;
    model.Forward(0, params.data(), perturbed, batch, &out, nullptr);
    for (size_t i = 0; i < c.t; ++i) {  // Earlier tokens unaffected.
      for (size_t col = 0; col < d; ++col) {
        ASSERT_FLOAT_EQ(out[i * d + col], base[i * d + col])
            << "s " << s << " token " << i << " dim " << col;
      }
    }
    // Token t itself (and later) must change.
    bool changed = false;
    for (size_t col = 0; col < d; ++col) {
      if (out[c.t * d + col] != base[c.t * d + col]) changed = true;
    }
    EXPECT_TRUE(changed) << "s " << s;
  }
}

TEST(TransformerTest, AttentionProbsAreCausalRowStochastic) {
  TinyTransformer model(TinyConfig());
  util::Rng rng(3);
  const auto params = model.InitLayerParams(0, &rng);
  const size_t batch = 2, s = 4, d = 8;
  std::vector<float> x(batch * s * d);
  rng.FillGaussian(&x, 1.0);
  LayerStash stash;
  std::vector<float> out;
  model.Forward(0, params.data(), x, batch, &out, &stash);
  const auto& probs = stash.saved[6];  // kProbs.
  const size_t heads = 2;
  ASSERT_EQ(probs.size(), batch * heads * s * s);
  for (size_t bh = 0; bh < batch * heads; ++bh) {
    const float* p = probs.data() + bh * s * s;
    for (size_t i = 0; i < s; ++i) {
      double row_sum = 0;
      for (size_t j = 0; j < s; ++j) {
        if (j > i) {
          EXPECT_EQ(p[i * s + j], 0.0f) << "future attention leaked";
        } else {
          EXPECT_GE(p[i * s + j], 0.0f);
        }
        row_sum += p[i * s + j];
      }
      EXPECT_NEAR(row_sum, 1.0, 1e-5);
    }
  }
}

double FullModelLoss(const TinyTransformer& model,
                     const std::vector<std::vector<float>>& params,
                     const std::vector<float>& x,
                     const std::vector<float>& target, size_t batch) {
  std::vector<float> acts = x;
  for (int l = 0; l < model.num_layers(); ++l) {
    std::vector<float> next;
    model.Forward(l, params[l].data(), acts, batch, &next, nullptr);
    acts = std::move(next);
  }
  std::vector<float> grad(acts.size());
  return MseLoss(acts.data(), target.data(), grad.data(), acts.size());
}

TEST(TransformerTest, GradientsMatchFiniteDifferences) {
  TinyTransformer model(TinyConfig());
  util::Rng rng(5);
  std::vector<std::vector<float>> params;
  for (int l = 0; l < model.num_layers(); ++l) {
    params.push_back(model.InitLayerParams(l, &rng));
  }
  const size_t batch = 2;
  std::vector<float> x(batch * model.InputSize()),
      target(batch * model.OutputSize());
  rng.FillGaussian(&x, 1.0);
  rng.FillGaussian(&target, 1.0);

  // Analytic pass.
  std::vector<LayerStash> stash(model.num_layers());
  std::vector<float> acts = x;
  for (int l = 0; l < model.num_layers(); ++l) {
    std::vector<float> next;
    model.Forward(l, params[l].data(), acts, batch, &next, &stash[l]);
    acts = std::move(next);
  }
  std::vector<float> grad(acts.size());
  MseLoss(acts.data(), target.data(), grad.data(), acts.size());
  std::vector<std::vector<float>> param_grads(model.num_layers());
  std::vector<float> input_grad;
  for (int l = model.num_layers() - 1; l >= 0; --l) {
    std::vector<float> grad_in;
    model.Backward(l, params[l].data(), stash[l], grad, batch, &grad_in,
                   &param_grads[l]);
    grad = std::move(grad_in);
  }
  input_grad = grad;

  // Spot-check every 7th parameter of every layer against central
  // differences (full sweep would be slow; stride covers all slices).
  const float eps = 1e-3f;
  for (int l = 0; l < model.num_layers(); ++l) {
    for (size_t i = 0; i < params[l].size(); i += 7) {
      auto perturbed = params;
      perturbed[l][i] += eps;
      const double up = FullModelLoss(model, perturbed, x, target, batch);
      perturbed[l][i] -= 2 * eps;
      const double down = FullModelLoss(model, perturbed, x, target, batch);
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(param_grads[l][i], numeric, 5e-2)
          << "layer " << l << " param " << i;
    }
  }
  // Input gradients too.
  for (size_t i = 0; i < x.size(); i += 5) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (FullModelLoss(model, params, xp, target, batch) -
                            FullModelLoss(model, params, xm, target, batch)) /
                           (2 * eps);
    EXPECT_NEAR(input_grad[i], numeric, 5e-2) << "input " << i;
  }
}

TEST(TransformerTest, HeadIsMeanPoolLinear) {
  TransformerConfig config = TinyConfig();
  config.num_blocks = 1;
  TinyTransformer model(config);
  const int head = 1;
  // Identity-ish head: out_dim=2, weights picking dims 0 and 1.
  std::vector<float> params(model.LayerParamCount(head), 0.0f);
  params[0 * 2 + 0] = 1.0f;  // W[0][0]
  params[1 * 2 + 1] = 1.0f;  // W[1][1]
  params[8 * 2 + 0] = 0.5f;  // bias[0]

  std::vector<float> in(4 * 8, 0.0f);
  for (size_t i = 0; i < 4; ++i) in[i * 8 + 0] = float(i);  // Mean 1.5.
  std::vector<float> out;
  model.Forward(head, params.data(), in, 1, &out, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 1.5f + 0.5f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(TransformerTest, LearnsSequenceClassificationWithCrossEntropy) {
  // End-to-end task realism: classify the sign of the sequence's mean
  // signal under noise, trained with softmax cross-entropy (the actual
  // pre-training loss family) through plain Adam.
  TransformerConfig config = TinyConfig();
  config.out_dim = 2;
  TinyTransformer model(config);
  util::Rng rng(21);
  std::vector<std::vector<float>> params, m_state, v_state;
  for (int l = 0; l < model.num_layers(); ++l) {
    params.push_back(model.InitLayerParams(l, &rng));
    m_state.emplace_back(params.back().size(), 0.0f);
    v_state.emplace_back(params.back().size(), 0.0f);
  }
  core::AdamConfig adam;
  adam.learning_rate = 3e-3;

  const size_t batch = 16;
  auto gen_batch = [&](std::vector<float>* x, std::vector<int>* labels) {
    x->assign(batch * model.InputSize(), 0.0f);
    labels->resize(batch);
    for (size_t b = 0; b < batch; ++b) {
      const int label = int(rng.Uniform(2));
      (*labels)[b] = label;
      const double bias = label == 0 ? 0.5 : -0.5;
      for (size_t i = 0; i < model.InputSize(); ++i) {
        (*x)[b * model.InputSize() + i] =
            float(rng.NextGaussian() * 0.5 + bias);
      }
    }
  };

  auto accuracy = [&](const std::vector<float>& logits,
                      const std::vector<int>& labels) {
    int correct = 0;
    for (size_t b = 0; b < batch; ++b) {
      const int predicted = logits[b * 2] > logits[b * 2 + 1] ? 0 : 1;
      if (predicted == labels[b]) ++correct;
    }
    return double(correct) / batch;
  };

  double last_accuracy = 0;
  for (int step = 1; step <= 150; ++step) {
    std::vector<float> x;
    std::vector<int> labels;
    gen_batch(&x, &labels);
    std::vector<LayerStash> stash(model.num_layers());
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      std::vector<float> next;
      model.Forward(l, params[l].data(), acts, batch, &next, &stash[l]);
      acts = std::move(next);
    }
    last_accuracy = accuracy(acts, labels);
    std::vector<float> grad(acts.size());
    SoftmaxCrossEntropy(acts.data(), labels.data(), grad.data(), batch, 2);
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params[l].data(), stash[l], grad, batch, &grad_in,
                     &grad_params);
      core::AdamUpdate(adam, params[l].data(), m_state[l].data(),
                       v_state[l].data(), grad_params.data(),
                       params[l].size(), step);
      grad = std::move(grad_in);
    }
  }
  EXPECT_GT(last_accuracy, 0.85);
}

TEST(TransformerTest, ReusedStashesMatchFreshOnesBitwise) {
  // Two steps with new inputs and parameters: per-layer stashes kept from
  // the first step, and one stash shared by the blocks and the head (with
  // each layer recomputed before its backward), must give the bits of a
  // fresh stash per layer per step.
  TinyTransformer model(TinyConfig());
  const size_t batch = 3;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " compute threads");
    const testing::ScopedComputePool pool(threads);
    util::Rng rng(11);
    std::vector<LayerStash> per_layer(model.num_layers()), shared(1);
    for (int step = 0; step < 2; ++step) {
      std::vector<std::vector<float>> params;
      for (int l = 0; l < model.num_layers(); ++l) {
        params.push_back(model.InitLayerParams(l, &rng));
      }
      std::vector<float> x(batch * model.InputSize()),
          target(batch * model.OutputSize());
      rng.FillGaussian(&x, 1.0);
      rng.FillGaussian(&target, 1.0);
      std::vector<LayerStash> fresh(model.num_layers());
      const testing::PassResult want =
          testing::RunPass(model, params, x, target, batch, &fresh);
      EXPECT_TRUE(testing::SameBits(
          testing::RunPass(model, params, x, target, batch, &per_layer),
          want))
          << "per-layer stashes, step " << step;
      EXPECT_TRUE(testing::SameBits(
          testing::RunPass(model, params, x, target, batch, &shared), want))
          << "shared stash, step " << step;
    }
  }
}

TEST(TransformerTest, SameShapeForwardKeepsStashStorage) {
  // A second same-shape Forward writes into the slots the first one sized;
  // the head, run on a block's stash, keeps the block's slots.
  TinyTransformer model(TinyConfig());
  const int head = model.num_layers() - 1;
  const size_t batch = 2;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " compute threads");
    const testing::ScopedComputePool pool(threads);
    util::Rng rng(12);
    const auto block_params = model.InitLayerParams(0, &rng);
    const auto head_params = model.InitLayerParams(head, &rng);
    std::vector<float> x(batch * model.InputSize()), out;
    LayerStash stash;
    std::vector<const float*> slots;
    for (int call = 0; call < 2; ++call) {
      rng.FillGaussian(&x, 1.0);
      model.Forward(0, block_params.data(), x, batch, &out, &stash);
      ASSERT_EQ(stash.saved.size(), 14u);
      std::vector<const float*> now = {stash.input.data()};
      for (const auto& slot : stash.saved) now.push_back(slot.data());
      if (call == 1) {
        EXPECT_EQ(now, slots) << "block";
      }
      slots = now;
    }
    model.Forward(head, head_params.data(), x, batch, &out, &stash);
    ASSERT_EQ(stash.saved.size(), 14u);
    EXPECT_EQ(stash.input.data(), slots[0]);
    for (size_t k = 1; k < stash.saved.size(); ++k) {
      EXPECT_EQ(stash.saved[k].data(), slots[k + 1]) << "block slot " << k;
    }
    const float* pooled = stash.saved[0].data();
    model.Forward(head, head_params.data(), x, batch, &out, &stash);
    EXPECT_EQ(stash.saved[0].data(), pooled);
    EXPECT_EQ(stash.input.data(), slots[0]);
  }
}

TEST(TransformerTest, RejectsIndivisibleHeads) {
  TransformerConfig config = TinyConfig();
  config.d_model = 10;
  config.num_heads = 3;
  EXPECT_DEATH(TinyTransformer model(config), "heads");
  // Zero heads fails the check instead of dividing by zero.
  config.num_heads = 0;
  EXPECT_DEATH(TinyTransformer model(config), "num_heads must be at least 1");
}

}  // namespace
}  // namespace angelptm::train
