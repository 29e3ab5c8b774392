#include "derive.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

namespace dm = dlaja::metrics;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// Field-by-field comparison that names the first mismatch.
class Comparer {
 public:
  explicit Comparer(std::string* diff) : diff_(diff) {}

  void operator()(const char* field, double a, double b) {
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) fail(field);
  }
  template <typename T>
    requires(!std::is_floating_point_v<T>)
  void operator()(const char* field, const T& a, const T& b) {
    if (!(a == b)) fail(field);
  }
  [[nodiscard]] bool equal() const noexcept { return equal_; }

  void fail(const std::string& field) {
    if (equal_ && diff_ != nullptr) *diff_ = field;
    equal_ = false;
  }

 private:
  std::string* diff_;
  bool equal_ = true;
};

}  // namespace

bool reports_equal(const dm::RunReport& a, const dm::RunReport& b, std::string* diff) {
  Comparer cmp(diff);
  cmp("scheduler", a.scheduler, b.scheduler);
  cmp("workload", a.workload, b.workload);
  cmp("worker_config", a.worker_config, b.worker_config);
  cmp("iteration", a.iteration, b.iteration);
  cmp("seed", a.seed, b.seed);
  cmp("exec_time_s", a.exec_time_s, b.exec_time_s);
  cmp("cache_misses", a.cache_misses, b.cache_misses);
  cmp("data_load_mb", a.data_load_mb, b.data_load_mb);
  cmp("jobs_submitted", a.jobs_submitted, b.jobs_submitted);
  cmp("jobs_completed", a.jobs_completed, b.jobs_completed);
  cmp("jobs_retried", a.jobs_retried, b.jobs_retried);
  cmp("jobs_dead_lettered", a.jobs_dead_lettered, b.jobs_dead_lettered);
  cmp("jobs_lost", a.jobs_lost, b.jobs_lost);
  cmp("avg_turnaround_s", a.avg_turnaround_s, b.avg_turnaround_s);
  cmp("p50_turnaround_s", a.p50_turnaround_s, b.p50_turnaround_s);
  cmp("p95_turnaround_s", a.p95_turnaround_s, b.p95_turnaround_s);
  cmp("p99_turnaround_s", a.p99_turnaround_s, b.p99_turnaround_s);
  cmp("avg_alloc_latency_s", a.avg_alloc_latency_s, b.avg_alloc_latency_s);
  cmp("avg_queue_wait_s", a.avg_queue_wait_s, b.avg_queue_wait_s);
  cmp("cache_hit_rate", a.cache_hit_rate, b.cache_hit_rate);
  cmp("fairness_index", a.fairness_index, b.fairness_index);
  cmp("messages_delivered", a.messages_delivered, b.messages_delivered);
  cmp("workers.size", a.workers.size(), b.workers.size());
  for (std::size_t i = 0; cmp.equal() && i < a.workers.size(); ++i) {
    const dm::WorkerRecord& x = a.workers[i];
    const dm::WorkerRecord& y = b.workers[i];
    cmp("workers.name", x.name, y.name);
    cmp("workers.jobs_completed", x.jobs_completed, y.jobs_completed);
    cmp("workers.cache_misses", x.cache_misses, y.cache_misses);
    cmp("workers.cache_hits", x.cache_hits, y.cache_hits);
    cmp("workers.downloaded_mb", x.downloaded_mb, y.downloaded_mb);
    cmp("workers.busy_ticks", x.busy_ticks, y.busy_ticks);
    cmp("workers.downloading_ticks", x.downloading_ticks, y.downloading_ticks);
    cmp("workers.bids_submitted", x.bids_submitted, y.bids_submitted);
    cmp("workers.bids_won", x.bids_won, y.bids_won);
    cmp("workers.offers_declined", x.offers_declined, y.offers_declined);
  }
  cmp("stats.size", a.stats.size(), b.stats.size());
  for (std::size_t i = 0; cmp.equal() && i < a.stats.size(); ++i) {
    const std::string field = "stats." + a.stats[i].first;
    cmp(field.c_str(), a.stats[i].first, b.stats[i].first);
    cmp(field.c_str(), a.stats[i].second, b.stats[i].second);
  }
  return cmp.equal();
}

bool runs_equal(const Reports& a, const Reports& b, std::string* diff) {
  if (a.size() != b.size()) {
    if (diff != nullptr) *diff = "iteration count";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::string field;
    if (!reports_equal(a[i], b[i], &field)) {
      if (diff != nullptr) *diff = "iteration " + std::to_string(i) + ": " + field;
      return false;
    }
  }
  return true;
}

std::vector<std::string> output_problems(const Reports& run,
                                         std::uint64_t root_jobs_per_iteration,
                                         bool fault_free) {
  std::vector<std::string> problems;
  if (run.empty()) problems.push_back("the run produced no report");
  for (const dm::RunReport& r : run) {
    const std::string at = "iteration " + std::to_string(r.iteration) + ": ";
    if (r.jobs_lost != 0) {
      problems.push_back(at + std::to_string(r.jobs_lost) + " jobs lost");
    }
    if (r.jobs_dead_lettered != 0) {
      problems.push_back(at + std::to_string(r.jobs_dead_lettered) + " jobs dead-lettered");
    }
    if (fault_free && (r.jobs_submitted != root_jobs_per_iteration ||
                       r.jobs_completed != root_jobs_per_iteration)) {
      problems.push_back(at + "fault-free run completed " + std::to_string(r.jobs_completed) +
                         " of " + std::to_string(root_jobs_per_iteration) +
                         " root jobs (submitted " + std::to_string(r.jobs_submitted) + ")");
    }
  }
  return problems;
}

RunSummary summarize(const Reports& run, std::uint64_t root_jobs_per_iteration) {
  RunSummary s;
  for (const dm::RunReport& r : run) {
    s.root_jobs += root_jobs_per_iteration;
    s.dead_lettered += r.jobs_dead_lettered;
    s.lost += r.jobs_lost;
    s.run_s += r.wall_time_s;
    s.makespan_s += r.exec_time_s;
    s.data_load_mb += r.data_load_mb;
    s.cache_misses += r.cache_misses;
    s.turnaround_jobs += r.jobs_completed;
  }
  s.turnaround_p50_s = iteration_mean(run, &dm::RunReport::p50_turnaround_s);
  s.turnaround_p99_s = iteration_mean(run, &dm::RunReport::p99_turnaround_s);
  return s;
}

namespace {

[[nodiscard]] std::uint64_t root_jobs_completed(const RunSummary& run) {
  const std::uint64_t failed = run.dead_lettered + run.lost;
  return failed >= run.root_jobs ? 0 : run.root_jobs - failed;
}

}  // namespace

double jobs_completed_frac(const RunSummary& run, bool output_ok) {
  if (!output_ok || run.root_jobs == 0) return 0.0;
  return static_cast<double>(root_jobs_completed(run)) / static_cast<double>(run.root_jobs);
}

double jobs_per_s(const RunSummary& run, bool output_ok) {
  if (!output_ok || !(run.run_s > 0.0)) return 0.0;
  return static_cast<double>(root_jobs_completed(run)) / run.run_s;
}

double stat_sum(const Reports& run, const std::string& name) {
  double sum = 0.0;
  for (const dm::RunReport& r : run) sum += r.stat(name);
  return sum;
}

double histogram_mean(const Reports& run, const std::string& name) {
  double weighted = 0.0;
  double count = 0.0;
  for (const dm::RunReport& r : run) {
    const double n = r.stat(name + ".count");
    weighted += n * r.stat(name + ".mean");
    count += n;
  }
  return count > 0.0 ? weighted / count : 0.0;
}

double pooled_hit_rate(const Reports& run) {
  double hits = 0.0;
  double lookups = 0.0;
  for (const dm::RunReport& r : run) {
    for (const dm::WorkerRecord& w : r.workers) {
      hits += static_cast<double>(w.cache_hits);
      lookups += static_cast<double>(w.cache_hits + w.cache_misses);
    }
  }
  return lookups > 0.0 ? hits / lookups : 0.0;
}

}  // namespace perfbench
