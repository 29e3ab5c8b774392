#pragma once
// Metrics collection for one simulation run.
//
// Captures the paper's three evaluation metrics (§6.1):
//   1. end-to-end execution time,
//   2. data load — MB transferred to workers because data was not local,
//   3. cache misses — jobs whose worker had to download the resource,
// plus per-job timelines and per-worker utilisation used by the deeper
// analyses and the ablation benches.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/registry.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "workflow/workflow.hpp"

namespace dlaja::metrics {

/// Per-job lifecycle record. Timestamps are kNeverTick until set.
struct JobRecord {
  workflow::JobId id = 0;
  std::uint32_t worker = static_cast<std::uint32_t>(-1);
  Tick arrived = kNeverTick;         ///< submitted to the master
  Tick contest_opened = kNeverTick;  ///< bidding contest opened (Bidding only)
  Tick assigned = kNeverTick;        ///< sent to the winning/accepting worker
  Tick started = kNeverTick;         ///< worker began download/processing
  Tick finished = kNeverTick;
  bool cache_miss = false;
  MegaBytes downloaded_mb = 0.0;
  double winning_bid_s = -1.0;  ///< winning estimate in seconds (Bidding only)
  std::uint32_t bids_received = 0;
  std::uint32_t offers_rejected = 0;  ///< Baseline: rejections before acceptance

  [[nodiscard]] bool completed() const noexcept { return finished != kNeverTick; }
};

/// Per-worker aggregate counters.
struct WorkerRecord {
  std::string name;
  std::uint64_t jobs_completed = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_hits = 0;
  MegaBytes downloaded_mb = 0.0;
  Tick busy_ticks = 0;         ///< downloading + processing
  Tick downloading_ticks = 0;  ///< subset of busy spent transferring
  std::uint64_t bids_submitted = 0;
  std::uint64_t bids_won = 0;
  std::uint64_t offers_declined = 0;
};

/// Aggregates of job records folded away by retire_job() during streaming
/// (open-arrival) runs, so memory stays O(live jobs) no matter how many
/// arrivals flow through. Classification mirrors make_report()'s per-job
/// loop exactly; the turnaround histogram stands in for the exact
/// percentiles the closed path computes from the full sample.
struct RetiredJobStats {
  std::uint64_t count = 0;          ///< retired (completed) jobs
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_hits = 0;
  MegaBytes downloaded_mb = 0.0;
  Tick last_finished = 0;
  RunningStats turnaround_s;
  RunningStats alloc_latency_s;
  RunningStats queue_wait_s;
  Histogram turnaround_hist;
};

/// Mutable metrics sink for one run. Components write via the accessors;
/// the final RunReport is derived by make_report().
class MetricsCollector {
 public:
  explicit MetricsCollector(std::size_t worker_count = 0) { set_worker_count(worker_count); }

  /// (Re)sizes the per-worker table, preserving existing entries.
  void set_worker_count(std::size_t count) { workers_.resize(count); }

  /// Record for `id`, created on first access.
  JobRecord& job(workflow::JobId id);

  /// Read-only lookup; nullptr if the job was never recorded.
  [[nodiscard]] const JobRecord* find_job(workflow::JobId id) const;

  [[nodiscard]] WorkerRecord& worker(std::uint32_t index);
  [[nodiscard]] const std::vector<WorkerRecord>& workers() const noexcept { return workers_; }

  /// Named counters/histograms fed by schedulers, workers and the network
  /// (decision latencies, transfer times, queue depths). Flattened into
  /// RunReport::stats by make_report().
  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const Registry& registry() const noexcept { return registry_; }

  /// Folds a *completed* job's record into the retired aggregates and
  /// drops it, keeping streaming-run memory O(live jobs). No-op for
  /// unknown or incomplete jobs.
  void retire_job(workflow::JobId id);

  [[nodiscard]] const RetiredJobStats& retired() const noexcept { return retired_; }

  /// All *live* (non-retired) job records in arrival order.
  [[nodiscard]] std::vector<const JobRecord*> jobs_in_arrival_order() const;

  /// Jobs ever recorded, retired ones included.
  [[nodiscard]] std::size_t job_count() const noexcept { return retired_.count + jobs_.size(); }

  // --- Derived aggregates (paper metrics) ------------------------------

  /// Total cache misses across all completed jobs.
  [[nodiscard]] std::uint64_t total_cache_misses() const noexcept;

  /// Total MB downloaded (data load).
  [[nodiscard]] MegaBytes total_data_load_mb() const noexcept;

  /// Completion time of the last finished job (0 if none finished).
  [[nodiscard]] Tick last_completion() const noexcept;

  /// Number of completed jobs.
  [[nodiscard]] std::uint64_t completed_jobs() const noexcept;

 private:
  std::unordered_map<workflow::JobId, JobRecord> jobs_;
  std::vector<workflow::JobId> order_;  // first-touch order == arrival order
  std::vector<WorkerRecord> workers_;
  Registry registry_;
  RetiredJobStats retired_;
};

}  // namespace dlaja::metrics
