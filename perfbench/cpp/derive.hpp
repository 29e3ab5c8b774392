#pragma once
// Metric derivations from RunReports and raw samples, kept free of timing
// so tests can pin them on hand-built inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/report.hpp"

namespace perfbench {

using Reports = std::vector<dlaja::metrics::RunReport>;

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] inline double minimum(std::vector<double> values) {
  return quantile(std::move(values), 0.0);
}

/// a / b, or 0 when b is not positive (a metric of a run that produced no
/// samples reads 0 rather than inf or NaN).
[[nodiscard]] inline double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// True when every field of `a` and `b` except wall_time_s is equal, doubles
/// compared bit for bit. Otherwise false, with the first differing field
/// named in `diff` when given.
[[nodiscard]] bool reports_equal(const dlaja::metrics::RunReport& a,
                                 const dlaja::metrics::RunReport& b,
                                 std::string* diff = nullptr);

/// Same, over whole runs (one report per iteration).
[[nodiscard]] bool runs_equal(const Reports& a, const Reports& b, std::string* diff = nullptr);

/// The output checks every run must pass; returns one message per failure.
///   - no attempt is lost (jobs_lost == 0) in any iteration;
///   - no job is dead-lettered: every workload is sized so that each root
///     job completes, faults included;
///   - fault-free runs submit and complete exactly the root jobs.
[[nodiscard]] std::vector<std::string> output_problems(const Reports& run,
                                                       std::uint64_t root_jobs_per_iteration,
                                                       bool fault_free);

/// End-to-end figures of one run, summed over its iterations.
struct RunSummary {
  std::uint64_t root_jobs = 0;  ///< root jobs x iterations
  std::uint64_t dead_lettered = 0;
  std::uint64_t lost = 0;
  double run_s = 0.0;  ///< host seconds of the run phase (sum of wall_time_s)
  double makespan_s = 0.0;
  double data_load_mb = 0.0;
  std::uint64_t cache_misses = 0;
  /// Mean over iterations of each iteration's per-job percentile.
  double turnaround_p50_s = 0.0;
  double turnaround_p99_s = 0.0;
  std::uint64_t turnaround_jobs = 0;  ///< completed jobs the percentiles cover
};

[[nodiscard]] RunSummary summarize(const Reports& run, std::uint64_t root_jobs_per_iteration);

/// Share of root jobs that completed: (root - dead-lettered - lost) / root,
/// and 0 for a run that failed an output check. RunReport::jobs_completed
/// counts attempt completions (a retried job can complete twice), so it is
/// not used.
[[nodiscard]] double jobs_completed_frac(const RunSummary& run, bool output_ok);

/// Root jobs completed per host second of the run phase (0 if failed).
[[nodiscard]] double jobs_per_s(const RunSummary& run, bool output_ok);

/// Sum over iterations of a flattened stat (0 where absent).
[[nodiscard]] double stat_sum(const Reports& run, const std::string& name);

/// Count-weighted mean of a histogram stat's "<name>.mean" over iterations,
/// using "<name>.count" as the weights (0 when no samples).
[[nodiscard]] double histogram_mean(const Reports& run, const std::string& name);

/// Plain mean over iterations of one report field.
template <typename Field>
[[nodiscard]] double iteration_mean(const Reports& run, Field field) {
  if (run.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& report : run) sum += static_cast<double>(report.*field);
  return sum / static_cast<double>(run.size());
}

/// Cache hits / (hits + misses) over every worker of every iteration.
[[nodiscard]] double pooled_hit_rate(const Reports& run);

}  // namespace perfbench
