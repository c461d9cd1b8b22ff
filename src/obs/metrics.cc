#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace angelptm::obs {
namespace {

std::string FormatDoubleJson(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

size_t HistogramBucketIndex(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

uint64_t HistogramBucketLowerBound(size_t bucket) {
  if (bucket == 0) return 0;
  return uint64_t{1} << (bucket - 1);
}

uint64_t HistogramBucketUpperBound(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

void HistogramData::Record(uint64_t value) {
  buckets[HistogramBucketIndex(value)] += 1;
  count += 1;
  sum += value;
  if (value > max) max = value;
}

void HistogramData::Merge(const HistogramData& other) {
  for (size_t i = 0; i < kNumHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

double HistogramData::Mean() const {
  return count == 0 ? 0.0 : double(sum) / double(count);
}

uint64_t HistogramData::Percentile(double p) const {
  if (count == 0) return 0;
  const uint64_t target = uint64_t(p * double(count) + 0.9999999);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= target) return std::min(HistogramBucketUpperBound(i), max);
  }
  return max;
}

std::string HistogramData::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2f p50=%llu p95=%llu max=%llu",
                (unsigned long long)count, Mean(),
                (unsigned long long)Percentile(0.5),
                (unsigned long long)Percentile(0.95),
                (unsigned long long)max);
  return buf;
}

std::string HistogramData::ToJson() const {
  std::string out = "{\"count\":" + std::to_string(count);
  out += ",\"mean\":" + FormatDoubleJson(Mean());
  out += ",\"p50\":" + std::to_string(Percentile(0.5));
  out += ",\"p95\":" + std::to_string(Percentile(0.95));
  out += ",\"max\":" + std::to_string(max);
  out += "}";
  return out;
}

}  // namespace angelptm::obs
