// SyntheticRegression::GenBatch against the per-sample generator it
// replaced, kept here as the reference: the same x, y and generator state,
// bit for bit, at 1 and 4 compute threads. GenBatchRows must give the same
// rows of each batch and leave the same generator state.

#include "train/dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "util/parallel_for.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace angelptm::train {
namespace {

/// The generator one sample at a time: the teacher's weights drawn one
/// NextGaussian() per element, then per sample its inputs, a teacher pass
/// that walks w1 and w2 column by column, and its noise.
class ReferenceRegression {
 public:
  ReferenceRegression(size_t in_dim, size_t hidden, size_t out_dim,
                      uint64_t seed, double noise_stddev = 0.01)
      : in_dim_(in_dim),
        hidden_(hidden),
        out_dim_(out_dim),
        noise_stddev_(noise_stddev) {
    util::Rng rng(seed);
    Fill(&rng, &w1_, in_dim * hidden, 1.0 / std::sqrt(double(in_dim)));
    Fill(&rng, &b1_, hidden, 0.1);
    Fill(&rng, &w2_, hidden * out_dim, 1.0 / std::sqrt(double(hidden)));
    Fill(&rng, &b2_, out_dim, 0.1);
  }

  void GenBatch(util::Rng* rng, size_t batch, std::vector<float>* x,
                std::vector<float>* y) const {
    x->resize(batch * in_dim_);
    y->resize(batch * out_dim_);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t i = 0; i < in_dim_; ++i) {
        (*x)[b * in_dim_ + i] = float(rng->NextGaussian());
      }
      Teacher(x->data() + b * in_dim_, y->data() + b * out_dim_);
      for (size_t k = 0; k < out_dim_; ++k) {
        (*y)[b * out_dim_ + k] += float(rng->NextGaussian() * noise_stddev_);
      }
    }
  }

 private:
  static void Fill(util::Rng* rng, std::vector<float>* out, size_t count,
                   double stddev) {
    out->resize(count);
    for (float& v : *out) v = float(rng->NextGaussian() * stddev);
  }

  void Teacher(const float* x, float* y) const {
    std::vector<float> h(hidden_);
    for (size_t j = 0; j < hidden_; ++j) {
      double sum = b1_[j];
      for (size_t i = 0; i < in_dim_; ++i) {
        sum += double(x[i]) * w1_[i * hidden_ + j];
      }
      h[j] = float(std::tanh(sum));
    }
    for (size_t k = 0; k < out_dim_; ++k) {
      double sum = b2_[k];
      for (size_t j = 0; j < hidden_; ++j) {
        sum += double(h[j]) * w2_[j * out_dim_ + k];
      }
      y[k] = float(sum);
    }
  }

  size_t in_dim_, hidden_, out_dim_;
  double noise_stddev_;
  std::vector<float> w1_, b1_, w2_, b2_;
};

struct Shape {
  const char* name;
  size_t in_dim, hidden, out_dim, batch;
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  // An empty vector's data() may be null, which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Rows [first, first + count) of a batch of `width`-float rows.
std::vector<float> Rows(const std::vector<float>& batch, size_t width,
                        size_t first, size_t count) {
  return std::vector<float>(batch.begin() + first * width,
                            batch.begin() + (first + count) * width);
}

void ExpectSameState(const util::Rng& got_rng, const util::Rng& want_rng) {
  const util::Rng::State got = got_rng.GetState(),
                         want = want_rng.GetState();
  EXPECT_EQ(got.s, want.s);
  EXPECT_EQ(got.has_cached_gaussian, want.has_cached_gaussian);
  EXPECT_EQ(std::memcmp(&got.cached_gaussian, &want.cached_gaussian,
                        sizeof(double)),
            0);
}

/// Draws three consecutive batches from both generators, at 1 and at 4
/// compute threads, and expects the same bits and the same data cursor.
/// Then draws the three batches again as slices of rows: at the start, in
/// the middle, at the end, and empty.
void ExpectMatchesReference(const Shape& shape, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << shape.name << ", seed " << seed);
  const ReferenceRegression reference(shape.in_dim, shape.hidden,
                                      shape.out_dim, seed);
  util::Rng reference_rng(seed + 1);
  std::vector<std::vector<float>> want_x(3), want_y(3);
  for (int i = 0; i < 3; ++i) {
    reference.GenBatch(&reference_rng, shape.batch, &want_x[i], &want_y[i]);
  }
  const double want_next = util::Rng(reference_rng).NextGaussian();

  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " compute threads");
    util::ThreadPool pool(threads);
    util::SetComputePoolOverride(&pool);
    const SyntheticRegression dataset(shape.in_dim, shape.hidden,
                                      shape.out_dim, seed);
    util::Rng rng(seed + 1);
    std::vector<float> x, y;
    for (int i = 0; i < 3; ++i) {
      dataset.GenBatch(&rng, shape.batch, &x, &y);
      EXPECT_TRUE(SameBits(x, want_x[i])) << "x of batch " << i;
      EXPECT_TRUE(SameBits(y, want_y[i])) << "y of batch " << i;
    }
    ExpectSameState(rng, reference_rng);
    EXPECT_EQ(rng.NextGaussian(), want_next);

    const size_t b = shape.batch;
    const std::pair<size_t, size_t> slices[] = {
        {0, (b + 1) / 2}, {b / 4, b / 2}, {b - (b + 2) / 3, (b + 2) / 3},
        {b / 2, 0}};
    for (const auto& [first, count] : slices) {
      SCOPED_TRACE(::testing::Message()
                   << "rows " << first << " + " << count);
      util::Rng slice_rng(seed + 1);
      for (int i = 0; i < 3; ++i) {
        dataset.GenBatchRows(&slice_rng, b, first, count, &x, &y);
        EXPECT_TRUE(SameBits(x, Rows(want_x[i], shape.in_dim, first, count)))
            << "x of batch " << i;
        EXPECT_TRUE(SameBits(y, Rows(want_y[i], shape.out_dim, first, count)))
            << "y of batch " << i;
      }
      ExpectSameState(slice_rng, reference_rng);
    }
    util::SetComputePoolOverride(nullptr);
  }
}

TEST(DatasetTest, GenBatchMatchesPerSampleTeacherAtBenchShapes) {
  // The three perfbench workloads: direct_sync_longseq (seq 256 x d 128 in,
  // 256 out), paged_lockfree_ssd (seq 32 x d 256 in, 64 out) and
  // zero3_sockets (a 512-in MLP, global batch 4 x 128).
  const Shape shapes[] = {{"direct", 32768, 64, 256, 8},
                          {"paged", 8192, 64, 64, 8},
                          {"zero3", 512, 64, 64, 512}};
  for (const Shape& shape : shapes) ExpectMatchesReference(shape, 7);
}

TEST(DatasetTest, GenBatchMatchesPerSampleTeacherAtOddShapes) {
  // in_dim + out_dim odd: a Box-Muller pair straddles a sample's inputs
  // and its noise, and one sample and the next, so the cached value
  // crosses FillGaussian calls. Batch 1 and a batch of 37 split unevenly.
  const Shape shapes[] = {{"batch 1", 9, 5, 3, 1},
                          {"odd 13+4", 13, 9, 4, 5},
                          {"odd 33+2", 33, 17, 2, 37},
                          {"odd 1+2", 1, 3, 2, 6}};
  for (const Shape& shape : shapes) {
    for (const uint64_t seed : {1, 2, 3}) {
      ExpectMatchesReference(shape, seed);
    }
  }
}

}  // namespace
}  // namespace angelptm::train
