#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bandwidth_throttle.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace angelptm::util {
namespace {

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(kKiB), "1.00 KiB");
  EXPECT_EQ(FormatBytes(4 * kMiB), "4.00 MiB");
  EXPECT_EQ(FormatBytes(40ull * kGiB), "40.00 GiB");
  EXPECT_EQ(FormatBytes(11ull * kTiB), "11.00 TiB");
  EXPECT_EQ(FormatBytes(uint64_t(1.5 * kGiB)), "1.50 GiB");
}

TEST(UnitsTest, FormatParamCount) {
  EXPECT_EQ(FormatParamCount(1'700'000'000ull), "1.7B");
  EXPECT_EQ(FormatParamCount(175'000'000'000ull), "175.0B");
  EXPECT_EQ(FormatParamCount(1'200'000'000'000ull), "1.2T");
  EXPECT_EQ(FormatParamCount(12'000'000ull), "12.0M");
  EXPECT_EQ(FormatParamCount(42), "42");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(2.5), "2.50 s");
  EXPECT_EQ(FormatDuration(0.0123), "12.30 ms");
  EXPECT_EQ(FormatDuration(12.3e-6), "12.30 us");
  EXPECT_EQ(FormatDuration(5e-9), "5 ns");
}

TEST(UnitsTest, RoundUp) {
  EXPECT_EQ(RoundUp(0, 8), 0u);
  EXPECT_EQ(RoundUp(1, 8), 8u);
  EXPECT_EQ(RoundUp(8, 8), 8u);
  EXPECT_EQ(RoundUp(9, 8), 16u);
  EXPECT_EQ(RoundUp(10, 3), 12u);
  EXPECT_EQ(RoundUp(7, 0), 7u);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  EXPECT_EQ(rng.Uniform(0), 0u);
  EXPECT_EQ(rng.Uniform(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, FillGaussianScalesByStddev) {
  Rng rng(13);
  std::vector<float> v(20000);
  rng.FillGaussian(&v, 0.01);
  double sum_sq = 0;
  for (float x : v) sum_sq += double(x) * x;
  EXPECT_NEAR(std::sqrt(sum_sq / v.size()), 0.01, 0.001);
}

/// Expects two generators to continue identically: the same xoshiro words
/// and the same Box-Muller cache, bit for bit.
void ExpectSameState(const Rng& got, const Rng& want) {
  const Rng::State a = got.GetState(), b = want.GetState();
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.has_cached_gaussian, b.has_cached_gaussian);
  EXPECT_EQ(std::memcmp(&a.cached_gaussian, &b.cached_gaussian,
                        sizeof(double)),
            0);
}

/// The bulk FillGaussian against NextGaussian() called once per element,
/// on a pinned compute pool of 1 and of 4 workers.
class FillGaussianTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(GetParam());
    SetComputePoolOverride(pool_.get());
  }
  void TearDown() override {
    SetComputePoolOverride(nullptr);
    pool_.reset();
  }

  /// Fills `count` elements from `rng` in bulk and from a copy of it one
  /// call at a time; expects the same bits and the same generator after.
  /// SkipGaussian of `count` from a third copy must leave that generator
  /// too.
  static void ExpectMatchesSerial(Rng rng, size_t count, double stddev) {
    Rng serial = rng, skipped = rng;
    std::vector<float> got(count), want(count);
    rng.FillGaussian(std::span<float>(got), stddev);
    for (float& v : want) v = float(serial.NextGaussian() * stddev);
    // An empty vector's data() may be null, which memcmp must not see.
    EXPECT_TRUE(count == 0 ||
                std::memcmp(got.data(), want.data(), count * sizeof(float)) ==
                    0);
    ExpectSameState(rng, serial);
    skipped.SkipGaussian(count);
    ExpectSameState(skipped, serial);
    EXPECT_EQ(rng.NextGaussian(), serial.NextGaussian());
  }

  std::unique_ptr<ThreadPool> pool_;
};

INSTANTIATE_TEST_SUITE_P(ComputeThreads, FillGaussianTest,
                         ::testing::Values(size_t{1}, size_t{4}));

TEST_P(FillGaussianTest, MatchesNextGaussianCallForCall) {
  // Whole pairs are drawn a block of random.cc's kPairsPerBlock at a time:
  // the sizes reach past two blocks and three pairs from both a cached and
  // an uncached start, odd sizes included.
  constexpr size_t kPairsPerBlock = 16384;
  for (const size_t count :
       {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
        size_t{8191}, size_t{8193}, 2 * kPairsPerBlock + 1,
        4 * kPairsPerBlock + 2, 4 * kPairsPerBlock + 7,
        4 * kPairsPerBlock + 8, size_t{100000}}) {
    for (const bool cached : {false, true}) {
      for (const double stddev : {1.0, 0.01}) {
        SCOPED_TRACE(::testing::Message()
                     << count << " elements, cached " << cached
                     << ", stddev " << stddev);
        Rng rng(1000 + count);
        // One call leaves the pair's second value cached.
        if (cached) (void)rng.NextGaussian();
        ExpectMatchesSerial(rng, count, stddev);
      }
    }
  }
}

TEST_P(FillGaussianTest, RedrawsAZeroUniformInStreamOrder) {
  // With s[1] == 0 the next output word is 0, so the first pair's u1 is 0
  // and must be redrawn after u2, as NextGaussian does.
  Rng rng(0);
  Rng::State state;
  state.s = {0x9E3779B97F4A7C15ull, 0, 0xBF58476D1CE4E5B9ull, 7};
  rng.SetState(state);
  Rng probe = rng;
  ASSERT_EQ(probe.NextDouble(), 0.0);
  for (const size_t count : {1, 2, 9}) {
    SCOPED_TRACE(::testing::Message() << count << " elements");
    ExpectMatchesSerial(rng, count, 1.0);
  }
}

TEST(TablePrinterTest, AlignsColumnsAndCountsRows) {
  TablePrinter table({"Model", "Params"});
  table.AddRow({"GPT3-175B", "175B"});
  table.AddSeparator();
  table.AddRow({"T5", "27B"});
  EXPECT_EQ(table.num_rows(), 2u);
  std::ostringstream os;
  table.Print(os, "Models");
  const std::string out = os.str();
  EXPECT_NE(out.find("== Models =="), std::string::npos);
  EXPECT_NE(out.find("| GPT3-175B | 175B"), std::string::npos);
  EXPECT_NE(out.find("| Model"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"A", "B", "C"});
  table.AddRow({"x"});
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("| x"), std::string::npos);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 4), "3.1416");
}

TEST(BandwidthThrottleTest, ZeroRateDoesNotSleep) {
  BandwidthThrottle throttle(0.0);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) throttle.Consume(1 << 20);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 0.1);
}

TEST(BandwidthThrottleTest, PacesToConfiguredRate) {
  // 100 MiB/s, consume 10 MiB -> ~0.1 s.
  BandwidthThrottle throttle(100.0 * 1024 * 1024);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) throttle.Consume(1 << 20);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.08);
  EXPECT_LT(elapsed, 0.5);
}

TEST(BandwidthThrottleTest, ConcurrentConsumeAndRetuneIsClean) {
  // Regression: Consume() read bytes_per_sec_ outside the lock, racing
  // set_rate() — a torn double read under TSan. Hammer both sides; the
  // assertion is that TSan stays quiet and the final rate is one of the
  // values written.
  BandwidthThrottle throttle(8.0e9);
  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    for (int i = 0; i < 500; ++i) {
      throttle.set_rate((i % 2) != 0 ? 2.0e9 : 8.0e9);
    }
    stop.store(true);
  });
  std::vector<std::thread> consumers;
  for (int t = 0; t < 4; ++t) {
    consumers.emplace_back([&] {
      while (!stop.load()) throttle.Consume(64);
    });
  }
  tuner.join();
  for (auto& thread : consumers) thread.join();
  const double rate = throttle.rate();
  EXPECT_TRUE(rate == 2.0e9 || rate == 8.0e9);
}

}  // namespace
}  // namespace angelptm::util
