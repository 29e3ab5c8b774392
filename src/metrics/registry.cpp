#include "metrics/registry.hpp"

#include <algorithm>
#include <cmath>

namespace dlaja::metrics {

int Histogram::bucket_index(double value) noexcept {
  if (!(value > 0.0)) return 0;
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5, 1)
  const int octave = exp - 1;                   // value = m * 2^octave, m in [1, 2)
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kBucketCount - 1;
  const double mantissa = frac * 2.0;
  int sub = static_cast<int>((mantissa - 1.0) * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return (octave - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_lower(int index) noexcept {
  const int octave = kMinExp + index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

void Histogram::record(double value) noexcept {
  if (buckets_.empty()) buckets_.resize(kBucketCount, 0);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
}

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  const std::uint64_t rank = std::max<std::uint64_t>(target, 1);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[static_cast<std::size_t>(i)];
    if (cumulative >= rank) {
      const double lower = bucket_lower(i);
      const double upper = bucket_lower(i + 1);
      return std::clamp((lower + upper) / 2.0, min_, max_);
    }
  }
  return max_;
}

std::vector<std::pair<std::string, double>> Registry::flatten() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size() + histograms_.size() * 5);
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, static_cast<double>(counter.value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name + ".count", static_cast<double>(histogram.count()));
    out.emplace_back(name + ".mean", histogram.mean());
    out.emplace_back(name + ".p50", histogram.percentile(50.0));
    out.emplace_back(name + ".p95", histogram.percentile(95.0));
    out.emplace_back(name + ".max", histogram.max());
  }
  return out;
}

}  // namespace dlaja::metrics
