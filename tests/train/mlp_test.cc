#include "train/mlp.h"

#include <vector>

#include <gtest/gtest.h>

#include "stash_test_util.h"
#include "train/kernels.h"
#include "util/random.h"

namespace angelptm::train {
namespace {

TEST(MlpTest, LayerParamCounts) {
  MlpModel model({{4, 8, 2}});
  EXPECT_EQ(model.num_layers(), 2);
  EXPECT_EQ(model.LayerParamCount(0), 4u * 8 + 8);
  EXPECT_EQ(model.LayerParamCount(1), 8u * 2 + 2);
  EXPECT_EQ(model.in_dim(), 4u);
  EXPECT_EQ(model.out_dim(), 2u);
}

TEST(MlpTest, InitHasGaussianWeightsZeroBias) {
  MlpModel model({{64, 32, 1}});
  util::Rng rng(1);
  const auto params = model.InitLayerParams(0, &rng);
  ASSERT_EQ(params.size(), 64u * 32 + 32);
  double sum_sq = 0;
  for (size_t i = 0; i < 64 * 32; ++i) sum_sq += double(params[i]) * params[i];
  // He init: variance 2/64.
  EXPECT_NEAR(sum_sq / (64 * 32), 2.0 / 64, 0.01);
  for (size_t i = 64 * 32; i < params.size(); ++i) {
    EXPECT_EQ(params[i], 0.0f);
  }
}

TEST(MlpTest, HeadIsLinear) {
  // A head layer must be exactly x*W + b (no GeLU).
  MlpModel model({{2, 3}});
  const std::vector<float> params = {1, 0, 0,  0, 1, 0,  0.5f, -0.5f, 2.0f};
  const std::vector<float> in = {3.0f, 4.0f};
  std::vector<float> out;
  model.Forward(0, params.data(), in, 1, &out, nullptr);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FLOAT_EQ(out[0], 3.5f);
  EXPECT_FLOAT_EQ(out[1], 3.5f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(MlpTest, HiddenLayerAppliesGelu) {
  MlpModel model({{1, 1, 1}});
  // Layer 0: w=1, b=0 -> output gelu(x).
  const std::vector<float> params = {1.0f, 0.0f};
  const std::vector<float> in = {-1.0f};
  std::vector<float> out;
  model.Forward(0, params.data(), in, 1, &out, nullptr);
  EXPECT_NEAR(out[0], -0.1588, 1e-3);  // gelu(-1)
}

TEST(MlpTest, FullGradientMatchesFiniteDifference) {
  MlpModel model({{3, 5, 2}});
  util::Rng rng(11);
  std::vector<std::vector<float>> params;
  for (int l = 0; l < model.num_layers(); ++l) {
    params.push_back(model.InitLayerParams(l, &rng));
  }
  const size_t batch = 4;
  std::vector<float> x(batch * 3), target(batch * 2);
  rng.FillGaussian(&x, 1.0);
  rng.FillGaussian(&target, 1.0);

  auto loss_fn = [&](const std::vector<std::vector<float>>& p) {
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      std::vector<float> next;
      model.Forward(l, p[l].data(), acts, batch, &next, nullptr);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    return MseLoss(acts.data(), target.data(), grad.data(), acts.size());
  };

  // Analytic gradients.
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
  for (int l = model.num_layers() - 1; l >= 0; --l) {
    std::vector<float> grad_in;
    model.Backward(l, params[l].data(), stash[l], grad, batch, &grad_in,
                   &param_grads[l]);
    grad = std::move(grad_in);
  }

  // Compare against central differences on every parameter.
  const float eps = 1e-3f;
  for (int l = 0; l < model.num_layers(); ++l) {
    for (size_t i = 0; i < params[l].size(); ++i) {
      auto perturbed = params;
      perturbed[l][i] += eps;
      const double up = loss_fn(perturbed);
      perturbed[l][i] -= 2 * eps;
      const double down = loss_fn(perturbed);
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(param_grads[l][i], numeric, 2e-2)
          << "layer " << l << " param " << i;
    }
  }
}

TEST(MlpTest, InputGradientMatchesFiniteDifference) {
  MlpModel model({{4, 6, 1}});
  util::Rng rng(13);
  std::vector<std::vector<float>> params;
  for (int l = 0; l < model.num_layers(); ++l) {
    params.push_back(model.InitLayerParams(l, &rng));
  }
  const size_t batch = 2;
  std::vector<float> x(batch * 4), target(batch * 1);
  rng.FillGaussian(&x, 1.0);
  rng.FillGaussian(&target, 1.0);

  auto loss_of_input = [&](const std::vector<float>& input) {
    std::vector<float> acts = input;
    for (int l = 0; l < model.num_layers(); ++l) {
      std::vector<float> next;
      model.Forward(l, params[l].data(), acts, batch, &next, nullptr);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    return MseLoss(acts.data(), target.data(), grad.data(), acts.size());
  };

  std::vector<LayerStash> stash(model.num_layers());
  std::vector<float> acts = x;
  for (int l = 0; l < model.num_layers(); ++l) {
    std::vector<float> next;
    model.Forward(l, params[l].data(), acts, batch, &next, &stash[l]);
    acts = std::move(next);
  }
  std::vector<float> grad(acts.size());
  MseLoss(acts.data(), target.data(), grad.data(), acts.size());
  for (int l = model.num_layers() - 1; l >= 0; --l) {
    std::vector<float> grad_in, param_grads;
    model.Backward(l, params[l].data(), stash[l], grad, batch, &grad_in,
                   &param_grads);
    grad = std::move(grad_in);
  }

  const float eps = 1e-3f;
  for (size_t i = 0; i < x.size(); ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss_of_input(xp) - loss_of_input(xm)) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 2e-2) << "input " << i;
  }
}

TEST(MlpTest, ReusedStashesMatchFreshOnesBitwise) {
  // Two steps with new inputs and parameters: per-layer stashes kept from
  // the first step, and one stash shared by the hidden layers and the head
  // (each layer recomputed before its backward), must give the bits of a
  // fresh stash per layer per step.
  MlpModel model({{5, 9, 7, 3}});
  const size_t batch = 4;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " compute threads");
    const testing::ScopedComputePool pool(threads);
    util::Rng rng(14);
    std::vector<LayerStash> per_layer(model.num_layers()), shared(1);
    for (int step = 0; step < 2; ++step) {
      std::vector<std::vector<float>> params;
      for (int l = 0; l < model.num_layers(); ++l) {
        params.push_back(model.InitLayerParams(l, &rng));
      }
      std::vector<float> x(batch * model.in_dim()),
          target(batch * model.out_dim());
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

TEST(MlpTest, SameShapeForwardKeepsStashStorage) {
  MlpModel model({{5, 9, 9, 3}});
  const size_t batch = 4;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " compute threads");
    const testing::ScopedComputePool pool(threads);
    util::Rng rng(15);
    std::vector<float> x(batch * 9), out;
    LayerStash stash;
    // Layer 1 (hidden) and layer 2 (the head) share one stash.
    for (const int layer : {1, 2}) {
      const auto params = model.InitLayerParams(layer, &rng);
      rng.FillGaussian(&x, 1.0);
      model.Forward(layer, params.data(), x, batch, &out, &stash);
      const float* input = stash.input.data();
      const float* pre_activation = stash.pre_activation.data();
      rng.FillGaussian(&x, 1.0);
      model.Forward(layer, params.data(), x, batch, &out, &stash);
      EXPECT_EQ(stash.input.data(), input) << "layer " << layer;
      EXPECT_EQ(stash.pre_activation.data(), pre_activation)
          << "layer " << layer;
    }
  }
}

}  // namespace
}  // namespace angelptm::train
