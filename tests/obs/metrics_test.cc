#include "obs/metrics.h"

#include <string>

#include <gtest/gtest.h>

namespace angelptm::obs {
namespace {

TEST(HistogramBucketTest, ExponentialBoundaries) {
  // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_EQ(HistogramBucketIndex(1), 1u);
  EXPECT_EQ(HistogramBucketIndex(2), 2u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketIndex(7), 3u);
  EXPECT_EQ(HistogramBucketIndex(8), 4u);
  EXPECT_EQ(HistogramBucketIndex(~uint64_t{0}), 64u);

  for (size_t bucket = 1; bucket < kNumHistogramBuckets; ++bucket) {
    // The stated bounds are tight: both land in the bucket, and the
    // neighbours land outside.
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketLowerBound(bucket)), bucket);
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketUpperBound(bucket)), bucket);
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketLowerBound(bucket) - 1),
              bucket - 1);
  }
  EXPECT_EQ(HistogramBucketLowerBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketLowerBound(5), 16u);
  EXPECT_EQ(HistogramBucketUpperBound(5), 31u);
}

TEST(HistogramDataTest, RecordMergeAndStats) {
  HistogramData h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(100);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 106u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 106.0 / 4.0);
  EXPECT_EQ(h.buckets[0], 1u);  // value 0
  EXPECT_EQ(h.buckets[1], 1u);  // value 1
  EXPECT_EQ(h.buckets[3], 1u);  // value 5 in [4, 8)
  EXPECT_EQ(h.buckets[7], 1u);  // value 100 in [64, 128)

  // Percentiles report the inclusive upper bound of the holding bucket,
  // capped at the recorded max (100, not the bucket's 127).
  EXPECT_EQ(h.Percentile(0.25), 0u);
  EXPECT_EQ(h.Percentile(0.5), 1u);
  EXPECT_EQ(h.Percentile(1.0), 100u);

  HistogramData other;
  other.Record(200);
  h.Merge(other);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.max, 200u);

  const std::string summary = h.Summary();
  EXPECT_NE(summary.find("count=5"), std::string::npos);
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":5"), std::string::npos);
  EXPECT_NE(json.find("\"max\":200"), std::string::npos);
}

TEST(HistogramDataTest, PercentileNeverExceedsTheMax) {
  // Every sample sits in bucket [8, 16), whose upper bound 15 was never
  // recorded: p50 and p95 read the max, 8 and 9, not 15.
  HistogramData h;
  for (int i = 0; i < 9; ++i) h.Record(8);
  EXPECT_EQ(h.Percentile(0.5), 8u);
  h.Record(9);
  EXPECT_EQ(h.Percentile(0.5), 9u);
  EXPECT_EQ(h.Percentile(0.95), 9u);
  EXPECT_NE(h.Summary().find("p50=9 p95=9 max=9"), std::string::npos);
  // A lower bucket's bound below the max is still reported as is.
  h.Record(2);
  EXPECT_EQ(h.Percentile(0.05), 3u);
}

}  // namespace
}  // namespace angelptm::obs
