#include "util/random.h"

#include <algorithm>
#include <cmath>

#include "util/parallel_for.h"

namespace angelptm::util {
namespace {

/// Box-Muller pairs one compute-pool task transforms, and pairs whose
/// uniforms FillGaussian holds at once (256 KiB, so a large span never
/// needs 8 bytes of scratch per element).
constexpr size_t kPairsPerChunk = 4096;
constexpr size_t kPairsPerBlock = 4 * kPairsPerChunk;

struct GaussianPair {
  double first;
  double second;
};

/// A pair's uniforms in the stream order NextGaussian has always drawn
/// them: u1, u2, then u1 again while it is too small to take the log of.
void DrawUniforms(Rng* rng, double* u1, double* u2) {
  *u1 = rng->NextDouble();
  *u2 = rng->NextDouble();
  while (*u1 <= 1e-300) *u1 = rng->NextDouble();
}

/// The one Box-Muller transform. NextGaussian and FillGaussian share it and
/// DrawUniforms, so they compute every value with the same instructions.
GaussianPair BoxMuller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

Rng::State Rng::GetState() const {
  State state;
  for (size_t i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.has_cached_gaussian = has_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::SetState(const State& state) {
  for (size_t i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

float Rng::UniformFloat(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2;
  DrawUniforms(this, &u1, &u2);
  const GaussianPair pair = BoxMuller(u1, u2);
  cached_gaussian_ = pair.second;
  has_cached_gaussian_ = true;
  return pair.first;
}

void Rng::FillGaussian(std::span<float> out, double stddev) {
  WalkGaussians(out.size(), out.data(), stddev);
}

void Rng::SkipGaussian(size_t n) { WalkGaussians(n, nullptr, 0.0); }

void Rng::WalkGaussians(size_t n, float* out, double stddev) {
  // A cached value comes first and the last pair (one or two elements) goes
  // through NextGaussian too, so the generator ends as those calls leave
  // it. Between them are whole pairs: their uniforms are drawn here
  // serially, and when filling, a block at a time, transformed on the pool.
  size_t begin = 0;
  if (has_cached_gaussian_ && n > 0) {
    const double g = NextGaussian();
    if (out != nullptr) out[begin] = static_cast<float>(g * stddev);
    ++begin;
  }
  const size_t whole_pairs = n > begin ? (n - begin - 1) / 2 : 0;
  if (out == nullptr) {
    for (size_t p = 0; p < whole_pairs; ++p) {
      double u1 = 0.0, u2 = 0.0;
      DrawUniforms(this, &u1, &u2);
    }
  } else {
    std::vector<double> uniforms(2 * std::min(whole_pairs, kPairsPerBlock));
    for (size_t first = 0; first < whole_pairs; first += kPairsPerBlock) {
      const size_t pairs = std::min(kPairsPerBlock, whole_pairs - first);
      for (size_t p = 0; p < pairs; ++p) {
        DrawUniforms(this, &uniforms[2 * p], &uniforms[2 * p + 1]);
      }
      float* dst = out + begin + 2 * first;
      ParallelFor(ComputePool(), 0, pairs, kPairsPerChunk,
                  [&](size_t lo, size_t hi) {
                    for (size_t p = lo; p < hi; ++p) {
                      const GaussianPair pair =
                          BoxMuller(uniforms[2 * p], uniforms[2 * p + 1]);
                      dst[2 * p] = static_cast<float>(pair.first * stddev);
                      dst[2 * p + 1] =
                          static_cast<float>(pair.second * stddev);
                    }
                  });
    }
  }
  for (size_t i = begin + 2 * whole_pairs; i < n; ++i) {
    const double g = NextGaussian();
    if (out != nullptr) out[i] = static_cast<float>(g * stddev);
  }
}

}  // namespace angelptm::util
