#ifndef ANGELPTM_OBS_METRICS_H_
#define ANGELPTM_OBS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace angelptm::obs {

/// Exponential histograms: the value type of every distribution in the
/// components' Stats (DESIGN.md §8). Each component instance counts its own
/// events, and its Snapshot() is the only way to read them, so two
/// instances in one process (the ranks of a threaded ZeRO run, a bench's
/// sync and async pipelines) report separately.

/// Bucket 0 holds the value 0; bucket i (1..64) holds [2^(i-1), 2^i).
/// Covers the full uint64 range with 65 buckets, index computable in O(1)
/// from the bit width of the value.
inline constexpr size_t kNumHistogramBuckets = 65;

size_t HistogramBucketIndex(uint64_t value);
/// Smallest value landing in `bucket` (0, 1, 2, 4, 8, ...).
uint64_t HistogramBucketLowerBound(size_t bucket);
/// Largest value landing in `bucket` (inclusive: 0, 1, 3, 7, ...).
uint64_t HistogramBucketUpperBound(size_t bucket);

/// Plain-value exponential histogram. Not thread-safe: a recorder shared
/// across threads guards it with its own stats mutex.
struct HistogramData {
  std::array<uint64_t, kNumHistogramBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  void Record(uint64_t value);
  void Merge(const HistogramData& other);
  double Mean() const;
  /// Upper bound (inclusive) of the bucket holding the p-quantile sample,
  /// capped at `max`, p in (0, 1]. An overestimate by at most 2x, like any
  /// bucketed percentile, and never above a recorded value. 0 when empty.
  uint64_t Percentile(double p) const;
  /// "count=12 mean=2.3 p50=3 p95=9 max=9".
  std::string Summary() const;
  /// {"count":12,"mean":2.3,"p50":3,"p95":9,"max":9}
  std::string ToJson() const;
};

}  // namespace angelptm::obs

#endif  // ANGELPTM_OBS_METRICS_H_
