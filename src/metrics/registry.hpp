#pragma once
// Counter/histogram registry.
//
// Schedulers, workers and the network feed named monotonic counters and
// log-linear histograms during a run; make_report() flattens the registry
// into RunReport::stats so the values reach the CSV export alongside the
// paper metrics.
//
// The histogram is log-linear (HdrHistogram-style): octaves (powers of two)
// split into a fixed number of linear sub-buckets, giving a bounded
// relative error (< 1/kSubBuckets) at any magnitude with a small fixed
// bucket table — recording is O(1) with no per-sample allocation.

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dlaja::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Log-linear histogram over positive doubles. Non-positive samples are
/// tracked in count/sum/min/max but land in the lowest bucket.
class Histogram {
 public:
  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Approximate percentile (p in [0,100]): the geometric midpoint of the
  /// bucket holding the target rank, clamped to the observed [min, max].
  /// Relative bucket error is below 1/kSubBuckets (12.5%). An empty
  /// histogram reports 0.0 for every p (mirrors min()/max()/mean()).
  [[nodiscard]] double percentile(double p) const noexcept;

 private:
  // 8 sub-buckets per octave over 2^-20 .. 2^40 (~1e-6 .. ~1e12): covers
  // microseconds-as-seconds up to terabyte-scale volumes.
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 40;
  static constexpr int kBucketCount = (kMaxExp - kMinExp) * kSubBuckets;

  [[nodiscard]] static int bucket_index(double value) noexcept;
  [[nodiscard]] static double bucket_lower(int index) noexcept;

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> buckets_;  ///< sized lazily on first record()
};

/// Named counters and histograms. References returned by counter() and
/// histogram() stay valid for the registry's lifetime (node-based map).
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && histograms_.empty();
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Flattens to (name, value) pairs in deterministic (sorted) order:
  /// counters as-is, histograms expanded to .count/.mean/.p50/.p95/.max.
  [[nodiscard]] std::vector<std::pair<std::string, double>> flatten() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// One Counter or Histogram of a registry, found by name on first use and
/// then held by pointer (the map's nodes never move), so a call site on a
/// per-job path neither builds a std::string nor searches the map again.
/// Each call site passes the same name, so a grep for a metric's name finds
/// where it is fed. Resolving on first use, not at construction, keeps an
/// instrument that never fires out of the report. An owner that moves to
/// another registry (a scheduler re-attached) must reset() first.
template <typename T>
class LazyRef {
  static_assert(std::is_same_v<T, Counter> || std::is_same_v<T, Histogram>);

 public:
  [[nodiscard]] T& get(Registry& registry, const char* name) {
    if (found_ == nullptr) {
      if constexpr (std::is_same_v<T, Counter>) {
        found_ = &registry.counter(name);
      } else {
        found_ = &registry.histogram(name);
      }
    }
    return *found_;
  }

  void reset() noexcept { found_ = nullptr; }

 private:
  T* found_ = nullptr;
};

}  // namespace dlaja::metrics
