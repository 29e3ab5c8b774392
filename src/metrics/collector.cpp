#include "metrics/collector.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlaja::metrics {

JobRecord& MetricsCollector::job(workflow::JobId id) {
  const auto [it, inserted] = jobs_.try_emplace(id);
  if (inserted) {
    it->second.id = id;
    order_.push_back(id);
  }
  return it->second;
}

const JobRecord* MetricsCollector::find_job(workflow::JobId id) const {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? &it->second : nullptr;
}

WorkerRecord& MetricsCollector::worker(std::uint32_t index) {
  if (index >= workers_.size()) {
    throw std::out_of_range("MetricsCollector::worker: bad index");
  }
  return workers_[index];
}

void MetricsCollector::retire_job(workflow::JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || !it->second.completed()) return;
  const JobRecord& job = it->second;

  // Mirror make_report()'s per-job classification exactly, so a streaming
  // run's report equals what the full sample would have produced (modulo
  // histogram-approximated percentiles).
  ++retired_.count;
  if (job.arrived != kNeverTick) {
    const double t = seconds_from_ticks(job.finished - job.arrived);
    retired_.turnaround_s.add(t);
    retired_.turnaround_hist.record(t);
    if (job.assigned != kNeverTick) {
      retired_.alloc_latency_s.add(seconds_from_ticks(job.assigned - job.arrived));
    }
  }
  if (job.assigned != kNeverTick && job.started != kNeverTick) {
    retired_.queue_wait_s.add(seconds_from_ticks(job.started - job.assigned));
  }
  if (job.cache_miss) {
    ++retired_.cache_misses;
  } else if (job.downloaded_mb == 0.0 && job.worker != static_cast<std::uint32_t>(-1)) {
    ++retired_.cache_hits;
  }
  retired_.downloaded_mb += job.downloaded_mb;
  retired_.last_finished = std::max(retired_.last_finished, job.finished);
  jobs_.erase(it);

  // order_ keeps tombstones until mostly dead, then compacts — amortized
  // O(1) per retirement, and arrival order of survivors is preserved.
  if (order_.size() > 64 && jobs_.size() < order_.size() / 2) {
    std::vector<workflow::JobId> live;
    live.reserve(jobs_.size());
    for (const workflow::JobId kept : order_) {
      if (jobs_.count(kept) > 0) live.push_back(kept);
    }
    order_.swap(live);
  }
}

std::vector<const JobRecord*> MetricsCollector::jobs_in_arrival_order() const {
  std::vector<const JobRecord*> result;
  result.reserve(jobs_.size());
  for (const workflow::JobId id : order_) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) result.push_back(&it->second);
  }
  return result;
}

std::uint64_t MetricsCollector::total_cache_misses() const noexcept {
  std::uint64_t total = retired_.cache_misses;
  for (const auto& [id, record] : jobs_) {
    if (record.cache_miss) ++total;
  }
  return total;
}

MegaBytes MetricsCollector::total_data_load_mb() const noexcept {
  MegaBytes total = retired_.downloaded_mb;
  for (const auto& [id, record] : jobs_) total += record.downloaded_mb;
  return total;
}

Tick MetricsCollector::last_completion() const noexcept {
  Tick last = retired_.last_finished;
  for (const auto& [id, record] : jobs_) {
    if (record.completed() && record.finished > last) last = record.finished;
  }
  return last;
}

std::uint64_t MetricsCollector::completed_jobs() const noexcept {
  std::uint64_t total = retired_.count;
  for (const auto& [id, record] : jobs_) {
    if (record.completed()) ++total;
  }
  return total;
}

}  // namespace dlaja::metrics
