// Drives a LayeredModel through forward + backward with fresh, reused or
// shared LayerStashes, for the stash-slot contract tests of both models
// (LayeredModel::Forward).
#ifndef ANGELPTM_TESTS_TRAIN_STASH_TEST_UTIL_H_
#define ANGELPTM_TESTS_TRAIN_STASH_TEST_UTIL_H_

#include <cstring>
#include <vector>

#include "train/kernels.h"
#include "train/layered_model.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace angelptm::train::testing {

/// A compute pool of `threads` workers, installed as the process's compute
/// pool for the scope's lifetime (a failed ASSERT leaves no dangling
/// override behind).
class ScopedComputePool {
 public:
  explicit ScopedComputePool(size_t threads) : pool_(threads) {
    util::SetComputePoolOverride(&pool_);
  }
  ~ScopedComputePool() { util::SetComputePoolOverride(nullptr); }
  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  util::ThreadPool pool_;
};

/// Everything one forward + backward pass produces.
struct PassResult {
  std::vector<float> out;
  std::vector<float> input_grad;
  std::vector<std::vector<float>> param_grads;
};

/// One forward + backward pass of every layer under an MSE loss. With one
/// stash in `stashes`, every layer shares it and Backward(l) first re-runs
/// Forward(l) into it, as the paged step's recompute does; otherwise layer
/// l uses (*stashes)[l].
inline PassResult RunPass(const LayeredModel& model,
                          const std::vector<std::vector<float>>& params,
                          const std::vector<float>& x,
                          const std::vector<float>& target, size_t batch,
                          std::vector<LayerStash>* stashes) {
  const int layers = model.num_layers();
  const bool shared = stashes->size() == 1;
  auto stash = [&](int l) -> LayerStash& {
    return (*stashes)[shared ? 0 : l];
  };
  std::vector<std::vector<float>> inputs(layers);
  std::vector<float> acts = x, next;
  for (int l = 0; l < layers; ++l) {
    inputs[l] = acts;
    model.Forward(l, params[l].data(), acts, batch, &next, &stash(l));
    acts.swap(next);
  }
  PassResult result;
  result.out = acts;
  std::vector<float> grad(acts.size()), grad_in;
  MseLoss(acts.data(), target.data(), grad.data(), acts.size());
  result.param_grads.resize(layers);
  for (int l = layers - 1; l >= 0; --l) {
    if (shared) {
      model.Forward(l, params[l].data(), inputs[l], batch, &next, &stash(l));
    }
    model.Backward(l, params[l].data(), stash(l), grad, batch, &grad_in,
                   &result.param_grads[l]);
    grad.swap(grad_in);
  }
  result.input_grad = grad;
  return result;
}

inline bool SameBits(const std::vector<float>& a,
                     const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

inline bool SameBits(const PassResult& a, const PassResult& b) {
  if (!SameBits(a.out, b.out) || !SameBits(a.input_grad, b.input_grad) ||
      a.param_grads.size() != b.param_grads.size()) {
    return false;
  }
  for (size_t l = 0; l < a.param_grads.size(); ++l) {
    if (!SameBits(a.param_grads[l], b.param_grads[l])) return false;
  }
  return true;
}

}  // namespace angelptm::train::testing

#endif  // ANGELPTM_TESTS_TRAIN_STASH_TEST_UTIL_H_
