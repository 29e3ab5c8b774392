#pragma once
// Job lifecycle: no submitted job is ever silently lost.
//
// Every assignment gets a *lease* — a completion-ack deadline derived from
// the winning bid (or the assignee's estimate). When the lease expires the
// master probes whether the worker still holds the job: if yes (a slow run,
// a degraded link) the lease is re-armed; if not (the worker crashed, the
// assignment or the completion report was dropped) the attempt is *voided*
// and the job is resubmitted — preferring to exclude the failed worker —
// up to a bounded attempt count, after which it is dead-lettered. At
// quiescence every tracked job is terminal: completed or dead-lettered.
//
// At-least-once semantics: a completion report lost in flight makes the
// lease void a job that actually finished, so a retry can execute it twice.
// The engine's completion mailbox dedupes by job id, so metrics count each
// job once.
//
// The lifecycle is inert unless enabled: fault-free runs construct none of
// this and stay bit-identical.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/protocol.hpp"
#include "metrics/collector.hpp"
#include "sim/simulator.hpp"
#include "workflow/workflow.hpp"

namespace dlaja::core {

struct LifecycleConfig {
  /// Master switch; auto-enabled by the engine when a fault plan is set.
  bool enabled = false;

  /// Total attempts per job (first execution + retries) before dead-letter.
  std::uint32_t max_attempts = 5;

  /// Lease duration = max(lease_min_s, lease_factor * completion estimate).
  /// Generous on purpose: a premature void only costs a duplicate
  /// execution, but frequent ones would thrash the schedulers.
  double lease_factor = 4.0;
  double lease_min_s = 30.0;

  /// Delay before a voided job is resubmitted (lets a recovery land and
  /// prevents zero-delay retry storms when every worker is down).
  double retry_backoff_s = 2.0;
};

class JobLifecycle {
 public:
  /// Engine-provided mechanics. The lifecycle decides *when* to retry or
  /// give up; the engine owns ids, live-job bookkeeping, and the scheduler.
  struct Callbacks {
    /// Resubmit the job as a fresh copy (the engine assigns a new id and
    /// routes it back through track() + the scheduler).
    std::function<void(workflow::Job)> resubmit;
    /// Does `worker` still hold job `id` (queued or executing)?
    std::function<bool(workflow::JobId, cluster::WorkerIndex)> worker_holds;
    /// The attempt `id` is void: forget it (live-job map, scheduler state).
    /// `worker` is kNoWorker when the job was never assigned.
    std::function<void(workflow::JobId, cluster::WorkerIndex)> abandon;
  };

  /// A job that exhausted its attempts.
  struct DeadLetter {
    workflow::Job job;
    std::uint32_t attempts = 0;
    Tick at = 0;
  };

  struct Stats {
    std::uint64_t tracked = 0;         ///< submissions seen (roots + retries)
    std::uint64_t completed = 0;       ///< attempts that finished
    std::uint64_t retries = 0;         ///< resubmissions scheduled
    std::uint64_t dead_letters = 0;    ///< jobs given up on
    std::uint64_t attempts_voided = 0; ///< assignments voided (crash or lease)
    std::uint64_t leases_broken = 0;   ///< leases expired with the job gone
    std::uint64_t leases_rearmed = 0;  ///< leases expired but the worker held on
  };

  JobLifecycle(sim::Simulator& sim, metrics::MetricsCollector& metrics,
               LifecycleConfig config, Callbacks callbacks);

  JobLifecycle(const JobLifecycle&) = delete;
  JobLifecycle& operator=(const JobLifecycle&) = delete;

  /// A job entered the system (engine calls this before Scheduler::submit,
  /// so synchronous assignments find the entry).
  void track(const workflow::Job& job);

  /// The scheduler committed `id` to `w`; `estimate_s <= 0` means unknown.
  /// Re-assignment of a live id (a duplicate offer) re-arms the lease.
  void assigned(workflow::JobId id, cluster::WorkerIndex w, double estimate_s);

  /// A completion report for `id` reached the master.
  void completed(workflow::JobId id);

  /// Worker `w` crashed: void every attempt assigned to it.
  void worker_crashed(cluster::WorkerIndex w);

  /// The scheduler could not place the job at all (all workers dead).
  void unassignable(const workflow::Job& job);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<DeadLetter>& dead_letters() const noexcept {
    return dead_letters_;
  }

  /// Jobs not yet terminal: tracked attempts plus retries in backoff. Zero
  /// at quiescence — the conservation invariant
  ///   tracked == completed + dead_letters + retries
  /// then holds (each retry re-tracks, each root terminates exactly once).
  [[nodiscard]] std::size_t unresolved() const noexcept {
    return entries_.size() + pending_retries_;
  }

  [[nodiscard]] const LifecycleConfig& config() const noexcept { return config_; }

  /// Attempts currently holding an armed lease (assigned, not yet terminal).
  /// O(tracked attempts); intended for telemetry gauges, not hot paths.
  [[nodiscard]] std::size_t outstanding_leases() const noexcept {
    std::size_t count = 0;
    for (const auto& [id, entry] : entries_) {
      if (entry.lease_armed) ++count;
    }
    return count;
  }

 private:
  struct Entry {
    workflow::Job job;
    std::uint32_t attempts = 1;
    cluster::WorkerIndex worker = cluster::kNoWorker;
    sim::EventId lease{};
    Tick lease_ticks = 0;
    bool lease_armed = false;
  };

  /// A voided job waiting out its retry backoff (slab-parked so the timer
  /// event captures only {this, slot}).
  struct PendingRetry {
    workflow::Job job;
    std::uint32_t attempts = 0;
  };

  void arm_lease(workflow::JobId id, Entry& entry);
  void probe_lease(workflow::JobId id);
  void void_attempt(workflow::JobId id);
  void retry_or_dead_letter(workflow::Job job, std::uint32_t attempts,
                            cluster::WorkerIndex failed_worker);
  void fire_retry(std::size_t slot);

  sim::Simulator& sim_;
  metrics::MetricsCollector& metrics_;
  metrics::LazyRef<metrics::Histogram> attempts_hist_;
  LifecycleConfig config_;
  Callbacks callbacks_;
  std::unordered_map<workflow::JobId, Entry> entries_;
  std::vector<PendingRetry> retry_slab_;
  std::vector<std::size_t> retry_free_;
  std::size_t pending_retries_ = 0;
  /// Attempt count the next track() call adopts (set around resubmit()).
  std::uint32_t next_attempts_ = 0;
  std::vector<DeadLetter> dead_letters_;
  Stats stats_;
  std::uint16_t trace_void_ = 0;        ///< "attempt_void" instants
  std::uint16_t trace_dead_letter_ = 0; ///< "dead_letter" instants
  bool trace_names_ready_ = false;
};

}  // namespace dlaja::core
