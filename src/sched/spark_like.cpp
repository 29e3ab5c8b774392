#include "sched/spark_like.hpp"

#include <algorithm>
#include <any>

#include "obs/trace.hpp"

namespace dlaja::sched {

using cluster::JobAssignment;
using cluster::WorkerIndex;

void SparkLikeScheduler::attach(const SchedulerContext& ctx) {
  ctx_ = ctx;
  for (WorkerIndex w = 0; w < ctx_.worker_count(); ++w) {
    cluster::WorkerNode* worker = ctx_.workers[w];
    if (worker == nullptr) continue;  // outside this context's partition
    ctx_.broker->register_mailbox(
        ctx_.worker_nodes[w], cluster::mailboxes::kJobs,
        [worker](const msg::Message& message) {
          worker->enqueue(message.payload.as<JobAssignment>().job);
        });
  }

  if (ctx_.probes != nullptr) {
    // Tasks of the current wave still running.
    ctx_.probes->add_gauge("sched.wave_outstanding", 0, [this] {
      return static_cast<double>(outstanding_);
    });
  }
}

WorkerIndex SparkLikeScheduler::place(const workflow::Job& job) {
  const std::size_t n = ctx_.worker_count();
  // Even Spark's driver knows which executors are lost: placement skips
  // failed workers (probing forward from the policy's first choice).
  WorkerIndex start = 0;
  switch (config_.placement) {
    case SparkLikeConfig::Placement::kRoundRobin:
      start = static_cast<WorkerIndex>(cursor_++ % n);
      break;
    case SparkLikeConfig::Placement::kHashByResource:
      start = job.needs_resource() ? static_cast<WorkerIndex>(job.resource % n)
                                   : static_cast<WorkerIndex>(cursor_++ % n);
      break;
  }
  const auto excluded = static_cast<WorkerIndex>(job.excluded_worker);
  WorkerIndex excluded_alive = cluster::kNoWorker;
  for (std::size_t probe = 0; probe < n; ++probe) {
    const auto w = static_cast<WorkerIndex>((start + probe) % n);
    if (ctx_.workers[w] == nullptr || ctx_.workers[w]->failed()) continue;
    if (w == excluded) {
      excluded_alive = w;  // soft exclusion: only if nobody else is alive
      continue;
    }
    return w;
  }
  if (excluded_alive != cluster::kNoWorker) return excluded_alive;
  // All workers dead. With a lifecycle the job goes back for retry or
  // dead-lettering; without one keep the legacy behaviour (the send is
  // dropped at delivery).
  return ctx_.notify_unassignable ? cluster::kNoWorker : start;
}

bool SparkLikeScheduler::assign(const workflow::Job& job) {
  const WorkerIndex w = place(job);
  if (w == cluster::kNoWorker) {
    ctx_.notify_unassignable(job);  // place() returns kNoWorker only when set
    return false;
  }
  metrics::JobRecord& record = ctx_.metrics->job(job.id);
  record.assigned = ctx_.sim->now();
  record.worker = w;
  ctx_.broker->send(ctx_.master_node, ctx_.worker_nodes[w], cluster::mailboxes::kJobs,
                    JobAssignment{job});
  if (ctx_.notify_assigned) {
    ctx_.notify_assigned(job.id, w, ctx_.workers[w]->estimate_bid_s(job));
  }
  return true;
}

void SparkLikeScheduler::ensure_trace_names() {
  if (trace_names_ready_) return;
  trace_names_ready_ = true;
  trace_wave_ = ctx_.sim->tracer()->intern("wave");
}

void SparkLikeScheduler::dispatch_wave() {
  const std::size_t wave = std::min(pending_.size(), std::max<std::size_t>(
                                                         1, ctx_.active_workers()));
  std::size_t launched = 0;
  for (std::size_t i = 0; i < wave; ++i) {
    if (assign(pending_.front())) ++launched;
    pending_.pop_front();
  }
  outstanding_ = launched;
  wave_started_ = ctx_.sim->now();
  ++wave_index_;
  ctx_.metrics->registry().counter("sched.waves").add(1);
  ctx_.metrics->registry().histogram("sched.wave_size").record(static_cast<double>(wave));
  // Every task of this wave went to the lifecycle (all workers dead): keep
  // draining the backlog rather than waiting for a completion that will
  // never come. Each round pops at least one job, so this terminates.
  if (launched == 0 && !pending_.empty()) schedule_dispatch();
}

void SparkLikeScheduler::schedule_dispatch() {
  if (dispatch_pending_) return;
  dispatch_pending_ = true;
  ctx_.sim->schedule_after(0, [this] {
    dispatch_pending_ = false;
    if (outstanding_ == 0 && !pending_.empty()) dispatch_wave();
  });
}

void SparkLikeScheduler::submit(const workflow::Job& job) {
  if (!config_.wave_barrier) {
    assign(job);
    return;
  }
  pending_.push_back(job);
  if (outstanding_ == 0) schedule_dispatch();
}

void SparkLikeScheduler::on_completion(const cluster::CompletionReport& report) {
  (void)report;
  if (!config_.wave_barrier || outstanding_ == 0) return;
  wave_slot_freed();
}

void SparkLikeScheduler::on_assignment_void(workflow::JobId id, cluster::WorkerIndex w) {
  (void)id;
  (void)w;
  // A voided assignment will never report completion; release its wave slot
  // or the barrier deadlocks. Best-effort: a void landing after its wave
  // already closed is simply ignored (outstanding_ guard).
  if (!config_.wave_barrier || outstanding_ == 0) return;
  wave_slot_freed();
}

void SparkLikeScheduler::wave_slot_freed() {
  if (--outstanding_ == 0) {
    // The allocation round closes at the wave barrier: slowest task gates it.
    if (DLAJA_TRACE_ACTIVE(ctx_.sim->tracer())) {
      ensure_trace_names();
      ctx_.sim->tracer()->span(obs::Component::kSched, trace_wave_, 0, wave_started_,
                               ctx_.sim->now(), wave_index_);
    }
    ctx_.metrics->registry()
        .histogram("sched.wave_s")
        .record(seconds_from_ticks(ctx_.sim->now() - wave_started_));
    if (!pending_.empty()) schedule_dispatch();
  }
}

}  // namespace dlaja::sched
