#include "core/lifecycle.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace dlaja::core {

using cluster::WorkerIndex;

JobLifecycle::JobLifecycle(sim::Simulator& sim, metrics::MetricsCollector& metrics,
                           LifecycleConfig config, Callbacks callbacks)
    : sim_(sim), metrics_(metrics), config_(config), callbacks_(std::move(callbacks)) {
  if (config_.max_attempts == 0) {
    throw std::invalid_argument("JobLifecycle: max_attempts must be >= 1");
  }
  if (!callbacks_.resubmit || !callbacks_.worker_holds || !callbacks_.abandon) {
    throw std::invalid_argument("JobLifecycle: all callbacks are required");
  }
}

void JobLifecycle::track(const workflow::Job& job) {
  if (!config_.enabled) return;
  Entry entry;
  entry.job = job;
  entry.attempts = next_attempts_ != 0 ? next_attempts_ : 1;
  next_attempts_ = 0;
  entries_.insert_or_assign(job.id, std::move(entry));
  ++stats_.tracked;
}

void JobLifecycle::assigned(workflow::JobId id, WorkerIndex w, double estimate_s) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;  // not tracked (lifecycle off for this job)
  Entry& entry = it->second;
  entry.worker = w;
  const double lease_s =
      std::max(config_.lease_min_s, config_.lease_factor * std::max(estimate_s, 0.0));
  entry.lease_ticks = ticks_from_seconds(lease_s);
  // A duplicate assignment (an offer retransmitted after a lost response)
  // re-arms rather than leaking the previous lease event.
  if (entry.lease_armed) sim_.cancel(entry.lease);
  arm_lease(id, entry);
}

void JobLifecycle::arm_lease(workflow::JobId id, Entry& entry) {
  auto fire = [this, id] { probe_lease(id); };
  static_assert(sim::InlineAction::fits_inline<decltype(fire)>());
  entry.lease = sim_.schedule_after(entry.lease_ticks, std::move(fire));
  entry.lease_armed = true;
}

void JobLifecycle::probe_lease(workflow::JobId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;  // completed in the same tick
  Entry& entry = it->second;
  entry.lease_armed = false;
  if (entry.worker != cluster::kNoWorker && callbacks_.worker_holds(id, entry.worker)) {
    // Still queued or executing (slow run, degraded link): extend the lease.
    ++stats_.leases_rearmed;
    arm_lease(id, entry);
    return;
  }
  // The worker no longer holds the job and no completion arrived: the
  // assignment, the job, or the report was lost.
  ++stats_.leases_broken;
  DLAJA_LOG(kInfo, "lifecycle") << sim_.log_prefix() << "lease broken for job " << id
                                << " on worker " << entry.worker;
  void_attempt(id);
}

void JobLifecycle::completed(workflow::JobId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;  // duplicate report or untracked job
  Entry entry = std::move(it->second);
  entries_.erase(it);
  if (entry.lease_armed) sim_.cancel(entry.lease);
  ++stats_.completed;
  metrics_.registry().histogram("fault.attempts").record(static_cast<double>(entry.attempts));
}

void JobLifecycle::worker_crashed(WorkerIndex w) {
  // Collect first (void_attempt mutates entries_), sorted so the retry
  // order is independent of hash-map iteration order.
  std::vector<workflow::JobId> victims;
  for (const auto& [id, entry] : entries_) {
    if (entry.worker == w) victims.push_back(id);
  }
  std::sort(victims.begin(), victims.end());
  for (const workflow::JobId id : victims) void_attempt(id);
}

void JobLifecycle::unassignable(const workflow::Job& job) {
  const auto it = entries_.find(job.id);
  if (it == entries_.end()) return;
  // Never assigned, so there is no lease to break and no scheduler state to
  // void — but the scheduler has dropped the job, so it must be retried (or
  // dead-lettered) from here.
  Entry entry = std::move(it->second);
  entries_.erase(it);
  if (entry.lease_armed) sim_.cancel(entry.lease);
  ++stats_.attempts_voided;
  callbacks_.abandon(job.id, cluster::kNoWorker);
  retry_or_dead_letter(std::move(entry.job), entry.attempts, cluster::kNoWorker);
}

void JobLifecycle::void_attempt(workflow::JobId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry entry = std::move(it->second);
  entries_.erase(it);
  if (entry.lease_armed) sim_.cancel(entry.lease);
  ++stats_.attempts_voided;
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    if (!trace_names_ready_) {
      trace_names_ready_ = true;
      trace_void_ = sim_.tracer()->intern("attempt_void");
      trace_dead_letter_ = sim_.tracer()->intern("dead_letter");
    }
    sim_.tracer()->instant(obs::Component::kFault, trace_void_, entry.worker, sim_.now(),
                           id);
  }
  // Late completions of this attempt must be ignored from here on.
  callbacks_.abandon(id, entry.worker);
  retry_or_dead_letter(std::move(entry.job), entry.attempts, entry.worker);
}

void JobLifecycle::retry_or_dead_letter(workflow::Job job, std::uint32_t attempts,
                                        WorkerIndex failed_worker) {
  if (attempts >= config_.max_attempts) {
    ++stats_.dead_letters;
    DLAJA_LOG(kWarn, "lifecycle") << sim_.log_prefix() << "job " << job.id
                                  << " dead-lettered after " << attempts << " attempts";
    if (DLAJA_TRACE_ACTIVE(sim_.tracer()) && trace_names_ready_) {
      sim_.tracer()->instant(obs::Component::kFault, trace_dead_letter_, failed_worker,
                             sim_.now(), job.id);
    }
    dead_letters_.push_back(DeadLetter{std::move(job), attempts, sim_.now()});
    return;
  }
  ++stats_.retries;
  // Soft exclusion: prefer any other worker on the retry. kNoWorker maps to
  // kNoExcludedWorker (no preference).
  job.excluded_worker = failed_worker != cluster::kNoWorker
                            ? static_cast<std::uint32_t>(failed_worker)
                            : workflow::kNoExcludedWorker;

  std::size_t slot;
  if (!retry_free_.empty()) {
    slot = retry_free_.back();
    retry_free_.pop_back();
    retry_slab_[slot] = PendingRetry{std::move(job), attempts};
  } else {
    slot = retry_slab_.size();
    retry_slab_.push_back(PendingRetry{std::move(job), attempts});
  }
  ++pending_retries_;
  auto fire = [this, slot] { fire_retry(slot); };
  static_assert(sim::InlineAction::fits_inline<decltype(fire)>());
  sim_.schedule_after(ticks_from_seconds(config_.retry_backoff_s), std::move(fire));
}

void JobLifecycle::fire_retry(std::size_t slot) {
  PendingRetry pending = std::move(retry_slab_[slot]);
  retry_slab_[slot] = PendingRetry{};
  retry_free_.push_back(slot);
  --pending_retries_;
  // The resubmission flows back through Engine::submit_job -> track(),
  // which adopts the incremented attempt count.
  next_attempts_ = pending.attempts + 1;
  callbacks_.resubmit(std::move(pending.job));
  next_attempts_ = 0;
}

}  // namespace dlaja::core
