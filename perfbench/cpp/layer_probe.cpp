#include "layer_probe.hpp"

#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

}  // namespace

TimedScheduler::TimedScheduler(std::unique_ptr<dlaja::sched::Scheduler> inner,
                               LayerSamples& out)
    : inner_(std::move(inner)), out_(out) {}

std::string TimedScheduler::name() const { return inner_->name(); }

void TimedScheduler::attach(const dlaja::sched::SchedulerContext& ctx) {
  workers_ = ctx.workers;
  metrics_ = ctx.metrics;
  if (ctx.probes != nullptr) {
    // An always-healthy invariant: the watchdog runs it once per telemetry
    // sample, which counts samples without adding a series.
    LayerSamples* out = &out_;
    ctx.probes->add_invariant("perfbench.telemetry_samples", 0, [out] {
      ++out->telemetry_samples;
      return std::string();
    });
  }
  inner_->attach(ctx);
}

void TimedScheduler::submit(const dlaja::workflow::Job& job) {
  const Clock::time_point start = Clock::now();
  inner_->submit(job);
  const double ns = ns_since(start);
  out_.submit_ns.push_back(ns);
  out_.submit_total_ns += ns;
  if (++submits_ % kEstimateStride == 0) sample_estimate(job);
}

void TimedScheduler::sample_estimate(const dlaja::workflow::Job& job) {
  for (std::size_t tries = 0; tries < workers_.size(); ++tries) {
    const dlaja::cluster::WorkerNode* worker = workers_[next_worker_];
    next_worker_ = (next_worker_ + 1) % workers_.size();
    if (worker == nullptr || worker->failed()) continue;
    const Clock::time_point start = Clock::now();
    const double bid = worker->estimate_bid_s(job);
    const double ns = ns_since(start);
    // Keeps the call from being optimized away; bids are finite.
    if (!std::isfinite(bid)) return;
    out_.estimate_ns.push_back(ns);
    out_.estimate_total_ns += ns;
    return;
  }
}

void TimedScheduler::record_bid_error(dlaja::workflow::JobId id) {
  if (metrics_ == nullptr) return;
  const dlaja::metrics::JobRecord* record = metrics_->find_job(id);
  if (record == nullptr || record->winning_bid_s < 0.0 ||
      record->assigned == dlaja::kNeverTick || record->finished == dlaja::kNeverTick ||
      record->finished <= record->assigned) {
    return;
  }
  const double actual_s = dlaja::seconds_from_ticks(record->finished - record->assigned);
  out_.bid_rel_error.push_back(std::fabs(record->winning_bid_s - actual_s) / actual_s);
}

void TimedScheduler::on_completion(const dlaja::cluster::CompletionReport& report) {
  const Clock::time_point start = Clock::now();
  inner_->on_completion(report);
  out_.callback_total_ns += ns_since(start);
  ++out_.callbacks;
  record_bid_error(report.job_id);
}

void TimedScheduler::on_worker_idle(dlaja::cluster::WorkerIndex w) {
  const Clock::time_point start = Clock::now();
  inner_->on_worker_idle(w);
  out_.callback_total_ns += ns_since(start);
  ++out_.callbacks;
}

void TimedScheduler::on_worker_capacity(dlaja::cluster::WorkerIndex w) {
  const Clock::time_point start = Clock::now();
  inner_->on_worker_capacity(w);
  out_.callback_total_ns += ns_since(start);
  ++out_.callbacks;
}

void TimedScheduler::on_worker_recovered(dlaja::cluster::WorkerIndex w) {
  inner_->on_worker_recovered(w);
}

void TimedScheduler::on_assignment_void(dlaja::workflow::JobId id,
                                        dlaja::cluster::WorkerIndex w) {
  inner_->on_assignment_void(id, w);
}

void TimedScheduler::on_scheduler_crash(std::uint32_t instance) {
  inner_->on_scheduler_crash(instance);
}

void TimedScheduler::on_scheduler_recovered(std::uint32_t instance) {
  inner_->on_scheduler_recovered(instance);
}

std::size_t TimedScheduler::pending_jobs() const { return inner_->pending_jobs(); }

bool TimedScheduler::supports_sharding() const { return inner_->supports_sharding(); }

}  // namespace perfbench
