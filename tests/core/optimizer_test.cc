#include "core/optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adam.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace angelptm::core {
namespace {

/// One optimizer state: params plus the rule's declared slots, with helpers
/// to run Update through the public interface.
struct RuleState {
  std::vector<float> params;
  std::vector<std::vector<float>> slots;

  static RuleState Init(const Optimizer& rule, std::vector<float> params) {
    RuleState state;
    state.params = std::move(params);
    for (const SlotSpec& spec : rule.SlotLayout(state.params.size())) {
      state.slots.emplace_back(spec.count, 0.0f);
    }
    return state;
  }

  util::Status Step(const Optimizer& rule, const std::vector<float>& grads,
                    long step) {
    std::vector<SlotView> views;
    for (std::vector<float>& slot : slots) {
      views.push_back({slot.data(), slot.size()});
    }
    return rule.Update(params.data(), grads.data(), params.size(), views,
                       step);
  }
};

std::vector<float> RandomVec(util::Rng* rng, size_t n, double scale = 1.0) {
  std::vector<float> out(n);
  for (float& x : out) x = float(rng->NextGaussian() * scale);
  return out;
}

class OptimizerTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetComputePoolOverride(nullptr); }

  static std::unique_ptr<Optimizer> Make(const std::string& rule) {
    OptimizerConfig config;
    config.rule = rule;
    config.learning_rate = 0.05;
    config.weight_decay = 0.01;
    auto optimizer = Optimizer::Create(config);
    EXPECT_TRUE(optimizer.ok()) << optimizer.status();
    return std::move(optimizer).value();
  }

  /// Runs `steps` updates at every pool width and requires the final state
  /// to be bitwise identical — the determinism contract of optimizer.h.
  static void ExpectThreadCountInvariant(const Optimizer& rule, size_t count,
                                         int steps) {
    util::Rng rng(911);
    const std::vector<float> init = RandomVec(&rng, count);
    std::vector<std::vector<float>> grads;
    for (int s = 0; s < steps; ++s) grads.push_back(RandomVec(&rng, count));

    std::vector<RuleState> results;
    for (const size_t threads : {size_t(1), size_t(4), size_t(8)}) {
      util::ThreadPool pool(threads);
      util::SetComputePoolOverride(&pool);
      RuleState state = RuleState::Init(rule, init);
      for (int s = 0; s < steps; ++s) {
        ASSERT_TRUE(state.Step(rule, grads[s], s + 1).ok());
      }
      util::SetComputePoolOverride(nullptr);
      results.push_back(std::move(state));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].params, results[0].params)
          << rule.name() << " diverged between thread counts";
      ASSERT_EQ(results[i].slots.size(), results[0].slots.size());
      for (size_t s = 0; s < results[i].slots.size(); ++s) {
        EXPECT_EQ(results[i].slots[s], results[0].slots[s])
            << rule.name() << " slot " << s
            << " diverged between thread counts";
      }
    }
  }
};

TEST_F(OptimizerTest, CreateKnowsExactlyTheFourRules) {
  EXPECT_EQ(RegisteredOptimizers(),
            (std::vector<std::string>{"adafactor", "adam", "lamb", "sgdm"}));
  for (const std::string& rule : RegisteredOptimizers()) {
    EXPECT_EQ(Make(rule)->name(), rule);
  }
}

TEST_F(OptimizerTest, CreateRejectsUnknownRuleAndBadConfig) {
  OptimizerConfig config;
  for (const char* rule : {"newton", "", "Adam"}) {
    config.rule = rule;
    const auto unknown = Optimizer::Create(config);
    ASSERT_TRUE(unknown.status().IsNotFound()) << unknown.status();
    // The error teaches the operator what exists.
    EXPECT_EQ(unknown.status().message(),
              "unknown optimizer rule '" + std::string(rule) +
                  "' (registered: adafactor, adam, lamb, sgdm)");
  }

  config.rule = "adam";
  config.learning_rate = 0.0;
  EXPECT_TRUE(Optimizer::Create(config).status().IsInvalidArgument());
}

TEST_F(OptimizerTest, SlotLayoutsMatchTheRules) {
  EXPECT_EQ(Make("adam")->SlotLayout(100).size(), 2u);
  EXPECT_EQ(Make("sgdm")->SlotLayout(100).size(), 1u);
  EXPECT_EQ(Make("lamb")->SlotLayout(100).size(), 2u);

  OptimizerConfig config;
  config.rule = "adafactor";
  config.adafactor_cols = 16;
  auto adafactor = Optimizer::Create(config);
  ASSERT_TRUE(adafactor.ok());
  const std::vector<SlotSpec> layout = (*adafactor)->SlotLayout(100);
  ASSERT_EQ(layout.size(), 2u);
  EXPECT_EQ(layout[0].name, "row");
  EXPECT_EQ(layout[0].count, 7u);  // ceil(100 / 16)
  EXPECT_EQ(layout[1].name, "col");
  EXPECT_EQ(layout[1].count, 16u);
  // Factored state is materially smaller than the parameters themselves.
  EXPECT_LT(layout[0].count + layout[1].count, 100u);
}

TEST_F(OptimizerTest, UpdateRejectsMismatchedSlots) {
  auto adam = Make("adam");
  std::vector<float> p(8, 1.0f), g(8, 0.1f), m(8, 0.0f);
  std::vector<SlotView> too_few = {{m.data(), m.size()}};
  EXPECT_TRUE(
      adam->Update(p.data(), g.data(), 8, too_few, 1).IsInvalidArgument());
}

TEST_F(OptimizerTest, AdamMatchesTheExistingKernelBitwise) {
  // The redesigned interface must not perturb the historic Adam path: the
  // wrapped rule and a direct AdamUpdate call agree bit for bit.
  OptimizerConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 0.02;
  auto adam = Optimizer::Create(config);
  ASSERT_TRUE(adam.ok());

  util::Rng rng(5);
  const size_t count = 10000;  // Spans several SIMD blocks + a tail.
  RuleState state = RuleState::Init(**adam, RandomVec(&rng, count));
  AdamConfig reference_config;
  reference_config.learning_rate = 0.01;
  reference_config.weight_decay = 0.02;
  std::vector<float> ref_p = state.params, ref_m(count, 0.0f),
                     ref_v(count, 0.0f);
  for (int step = 1; step <= 5; ++step) {
    const std::vector<float> grads = RandomVec(&rng, count);
    ASSERT_TRUE(state.Step(**adam, grads, step).ok());
    AdamUpdate(reference_config, ref_p.data(), ref_m.data(), ref_v.data(),
               grads.data(), count, step);
  }
  EXPECT_EQ(state.params, ref_p);
  EXPECT_EQ(state.slots[0], ref_m);
  EXPECT_EQ(state.slots[1], ref_v);
}

TEST_F(OptimizerTest, AdamBitwiseIdenticalAcrossThreadCounts) {
  ExpectThreadCountInvariant(*Make("adam"), 20000, 4);
}

TEST_F(OptimizerTest, SgdmMatchesNaiveReference) {
  auto sgdm = Make("sgdm");
  util::Rng rng(7);
  const size_t count = 5000;
  RuleState state = RuleState::Init(*sgdm, RandomVec(&rng, count));
  std::vector<float> ref_p = state.params, ref_m(count, 0.0f);
  for (int step = 1; step <= 4; ++step) {
    const std::vector<float> grads = RandomVec(&rng, count);
    ASSERT_TRUE(state.Step(*sgdm, grads, step).ok());
    for (size_t i = 0; i < count; ++i) {
      double g = grads[i] + 0.01 * ref_p[i];  // weight_decay = 0.01
      const double mi = 0.9 * ref_m[i] + g;   // beta1 = 0.9
      ref_m[i] = float(mi);
      ref_p[i] -= float(0.05 * mi);           // learning_rate = 0.05
    }
  }
  EXPECT_EQ(state.params, ref_p);
  EXPECT_EQ(state.slots[0], ref_m);
}

TEST_F(OptimizerTest, SgdmBitwiseIdenticalAcrossThreadCounts) {
  ExpectThreadCountInvariant(*Make("sgdm"), 20000, 4);
}

TEST_F(OptimizerTest, LambMatchesNaiveReference) {
  auto lamb = Make("lamb");
  util::Rng rng(11);
  const size_t count = 3000;
  RuleState state = RuleState::Init(*lamb, RandomVec(&rng, count));
  std::vector<float> ref_p = state.params;
  std::vector<double> ref_m(count, 0.0), ref_v(count, 0.0);
  for (int step = 1; step <= 4; ++step) {
    const std::vector<float> grads = RandomVec(&rng, count);
    ASSERT_TRUE(state.Step(*lamb, grads, step).ok());

    // Naive double-precision LAMB.
    const double bc1 = 1.0 - std::pow(0.9, step);
    const double bc2 = 1.0 - std::pow(0.999, step);
    std::vector<double> r(count);
    double p_norm_sq = 0.0, r_norm_sq = 0.0;
    for (size_t i = 0; i < count; ++i) {
      const double g = grads[i];
      ref_m[i] = 0.9 * ref_m[i] + 0.1 * g;
      ref_v[i] = 0.999 * ref_v[i] + 0.001 * g * g;
      r[i] = (ref_m[i] / bc1) / (std::sqrt(ref_v[i] / bc2) + 1e-8) +
             0.01 * ref_p[i];
      p_norm_sq += double(ref_p[i]) * double(ref_p[i]);
      r_norm_sq += r[i] * r[i];
    }
    double trust = 1.0;
    if (p_norm_sq > 0.0 && r_norm_sq > 0.0) {
      trust = std::min(std::sqrt(p_norm_sq) / std::sqrt(r_norm_sq), 10.0);
    }
    for (size_t i = 0; i < count; ++i) {
      ref_p[i] -= float(0.05 * trust * r[i]);
    }
  }
  for (size_t i = 0; i < count; ++i) {
    ASSERT_NEAR(state.params[i], ref_p[i], 1e-4) << "param " << i;
  }
}

TEST_F(OptimizerTest, LambTrustRatioScalesTheStep) {
  // Large params + tiny gradients => trust ratio > 1 => a LAMB step larger
  // than the plain Adam-style step (up to the clamp).
  auto lamb = Make("lamb");
  const size_t count = 64;
  RuleState big = RuleState::Init(*lamb, std::vector<float>(count, 100.0f));
  RuleState zero = RuleState::Init(*lamb, std::vector<float>(count, 0.0f));
  const std::vector<float> grads(count, 1e-3f);
  ASSERT_TRUE(big.Step(*lamb, grads, 1).ok());
  ASSERT_TRUE(zero.Step(*lamb, grads, 1).ok());
  // All-zero params have p_norm == 0: trust falls back to exactly 1.
  const double zero_step = std::fabs(0.0f - zero.params[0]);
  const double big_step = std::fabs(100.0f - big.params[0]);
  EXPECT_GT(big_step, zero_step);
}

TEST_F(OptimizerTest, LambBitwiseIdenticalAcrossThreadCounts) {
  ExpectThreadCountInvariant(*Make("lamb"), 20000, 4);
}

TEST_F(OptimizerTest, AdafactorMatchesNaiveReference) {
  OptimizerConfig config;
  config.rule = "adafactor";
  config.learning_rate = 0.05;
  config.weight_decay = 0.01;
  config.adafactor_cols = 32;
  auto adafactor = Optimizer::Create(config);
  ASSERT_TRUE(adafactor.ok());

  util::Rng rng(13);
  const size_t count = 1000;  // Ragged last row: 1000 = 31*32 + 8.
  const size_t cols = 32, rows = (count + cols - 1) / cols;
  RuleState state = RuleState::Init(**adafactor, RandomVec(&rng, count));
  std::vector<float> ref_p = state.params;
  std::vector<double> ref_row(rows, 0.0), ref_col(cols, 0.0);
  for (int step = 1; step <= 4; ++step) {
    const std::vector<float> grads = RandomVec(&rng, count);
    ASSERT_TRUE(state.Step(**adafactor, grads, step).ok());

    // Naive double-precision Adafactor over the ragged grid, mirroring the
    // float storage of the running statistics.
    const double bc2 = 1.0 - std::pow(0.999, step);
    std::vector<double> row_sum(rows, 0.0), col_sum(cols, 0.0);
    for (size_t k = 0; k < count; ++k) {
      const double g2 = double(grads[k]) * double(grads[k]) + 1e-30;
      row_sum[k / cols] += g2;
      col_sum[k % cols] += g2;
    }
    double row_total = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      ref_row[i] = float(0.999 * ref_row[i] + 0.001 * row_sum[i]);
      row_total += ref_row[i] / bc2;
    }
    for (size_t j = 0; j < cols; ++j) {
      ref_col[j] = float(0.999 * ref_col[j] + 0.001 * col_sum[j]);
    }
    for (size_t k = 0; k < count; ++k) {
      const double v_hat = (ref_row[k / cols] / bc2) *
                           (ref_col[k % cols] / bc2) / row_total;
      double u = double(grads[k]) / (std::sqrt(v_hat) + 1e-8);
      u += 0.01 * ref_p[k];
      ref_p[k] -= float(0.05 * u);
    }
  }
  for (size_t i = 0; i < count; ++i) {
    ASSERT_NEAR(state.params[i], ref_p[i], 1e-4) << "param " << i;
  }
}

TEST_F(OptimizerTest, AdafactorBitwiseIdenticalAcrossThreadCounts) {
  OptimizerConfig config;
  config.rule = "adafactor";
  config.learning_rate = 0.05;
  config.adafactor_cols = 128;
  auto adafactor = Optimizer::Create(config);
  ASSERT_TRUE(adafactor.ok());
  ExpectThreadCountInvariant(**adafactor, 20000, 4);
}

TEST_F(OptimizerTest, SplitPropertyDeclaredPerRule) {
  // Elementwise rules split; rules with a layer-wide reduction do not.
  EXPECT_TRUE(Make("adam")->SplitsBitwise());
  EXPECT_TRUE(Make("sgdm")->SplitsBitwise());
  EXPECT_FALSE(Make("lamb")->SplitsBitwise());
  EXPECT_FALSE(Make("adafactor")->SplitsBitwise());
}

TEST_F(OptimizerTest, SplittingRulesMatchOneCallBitwiseOverRandomSplits) {
  // The SplitsBitwise contract: Update over a random contiguous split of
  // [0, count) — params, grads and every slot cut at the same boundaries —
  // equals one call bit for bit, step after step. Cuts land off the SIMD
  // block grid on purpose.
  util::Rng rng(4242);
  const size_t count = 10007;
  int checked = 0;
  for (const std::string& name : RegisteredOptimizers()) {
    const std::unique_ptr<Optimizer> rule = Make(name);
    if (!rule->SplitsBitwise()) continue;
    ++checked;
    for (const SlotSpec& spec : rule->SlotLayout(count)) {
      ASSERT_EQ(spec.dtype, DType::kFp32) << name;
      ASSERT_EQ(spec.count, count) << name;
    }
    const std::vector<float> init = RandomVec(&rng, count);
    RuleState whole = RuleState::Init(*rule, init);
    RuleState split = RuleState::Init(*rule, init);
    for (long step = 1; step <= 3; ++step) {
      const std::vector<float> grads = RandomVec(&rng, count);
      ASSERT_TRUE(whole.Step(*rule, grads, step).ok());
      std::vector<size_t> cuts = {0, count};
      for (int c = 0; c < 6; ++c) cuts.push_back(1 + rng.Uniform(count - 1));
      std::sort(cuts.begin(), cuts.end());
      for (size_t c = 0; c + 1 < cuts.size(); ++c) {
        const size_t lo = cuts[c];
        const size_t n = cuts[c + 1] - lo;
        std::vector<SlotView> views;
        for (std::vector<float>& slot : split.slots) {
          views.push_back({slot.data() + lo, n});
        }
        ASSERT_TRUE(rule->Update(split.params.data() + lo, grads.data() + lo,
                                 n, views, step)
                        .ok());
      }
    }
    EXPECT_EQ(split.params, whole.params) << name;
    for (size_t s = 0; s < whole.slots.size(); ++s) {
      EXPECT_EQ(split.slots[s], whole.slots[s]) << name << " slot " << s;
    }
  }
  EXPECT_GE(checked, 2);
}

TEST_F(OptimizerTest, ResolveLegacyAdamOverridesOnlyChangedFields) {
  OptimizerConfig config;
  config.rule = "lamb";
  config.learning_rate = 0.5;
  config.beta1 = 0.8;

  AdamConfig legacy;  // All defaults: nothing overrides.
  OptimizerConfig resolved = ResolveLegacyAdam(config, legacy);
  EXPECT_EQ(resolved.rule, "lamb");
  EXPECT_EQ(resolved.learning_rate, 0.5);
  EXPECT_EQ(resolved.beta1, 0.8);

  legacy.learning_rate = 3e-3;  // Set away from the default: overrides.
  resolved = ResolveLegacyAdam(config, legacy);
  EXPECT_EQ(resolved.learning_rate, 3e-3);
  EXPECT_EQ(resolved.beta1, 0.8);  // Untouched legacy field: kept.
}

}  // namespace
}  // namespace angelptm::core
