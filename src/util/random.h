#ifndef ANGELPTM_UTIL_RANDOM_H_
#define ANGELPTM_UTIL_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace angelptm::util {

/// Deterministic PRNG (xoshiro256**). All stochastic components — synthetic
/// datasets, weight init, workload generators — take an explicit Rng so runs
/// are reproducible from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// The complete generator state: checkpointing it and restoring it later
  /// continues the exact same sample stream (the Box-Muller cache is part of
  /// the state, so Gaussian streams resume mid-pair too).
  struct State {
    std::array<uint64_t, 4> s{};
    bool has_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };
  State GetState() const;
  void SetState(const State& state);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound).
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform float in [lo, hi).
  float UniformFloat(float lo, float hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Fills `out` with N(0, stddev) floats: element i is bitwise
  /// `float(NextGaussian() * stddev)` of the i-th of `out.size()` calls, and
  /// the generator ends in the state those calls leave, cached second value
  /// included. The uniforms are drawn serially in NextGaussian's order; the
  /// Box-Muller transform runs in bounded chunks on the compute pool.
  void FillGaussian(std::span<float> out, double stddev);
  void FillGaussian(std::vector<float>* out, double stddev) {
    FillGaussian(std::span<float>(*out), stddev);
  }

  /// Advances the generator as FillGaussian of `n` elements (and so `n`
  /// NextGaussian() calls) would, without computing the values: whole
  /// pairs draw their uniforms and skip the Box-Muller transform.
  void SkipGaussian(size_t n);

 private:
  /// The stream walk FillGaussian and SkipGaussian share, so the two leave
  /// the generator in the same state: a cached value first, then whole
  /// pairs, then the last one or two draws through NextGaussian. With a
  /// null `out` the draws are skipped; otherwise `out[i]` is draw i times
  /// `stddev`.
  void WalkGaussians(size_t n, float* out, double stddev);

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace angelptm::util

#endif  // ANGELPTM_UTIL_RANDOM_H_
