#pragma once
// The Baseline scheduler: Crossflow's opinionated-worker job allocation
// (paper §4), used as the comparison point for the Bidding Scheduler.
//
// Workers pull jobs from the master and evaluate each pulled job against
// their acceptance criteria — here, data locality: a worker accepts a job
// whose resource it holds locally and *declines* a job it would have to
// download. Workers track the jobs they declined and must accept them on a
// later offer, so every job completes even though the first round of offers
// for an unseen resource is rejected by everyone (paper constraint #1).
//
// Crossflow performs "impromptu task allocation as jobs arrive": workers
// do not wait to be idle before pulling — they keep a small local prefetch
// of accepted jobs (`prefetch_depth`). Pulling early means the acceptance
// decision is made before clones from in-flight jobs exist, which is
// exactly what produces the redundant clones the paper observes.

#include <unordered_map>
#include <vector>

#include "sched/pull_base.hpp"

namespace dlaja::sched {

struct BaselineConfig {
  /// Number of times a worker may decline the same job before it must
  /// accept (paper: once).
  std::uint32_t max_declines_per_worker = 1;

  /// How many accepted jobs a worker holds beyond the one being processed
  /// (Crossflow consumers prefetch from the message queue). 0 = pull only
  /// when idle.
  std::uint32_t prefetch_depth = 1;

  /// Where a declined job re-enters the master's queue. false (default)
  /// re-offers the declined job immediately at the head — §4's "returned
  /// to the master so another worker can consider it" — which fixes its
  /// placement while clones are still scarce (the redundant-clone
  /// behaviour the paper observes). true defers it behind the backlog
  /// (ActiveMQ redelivery-at-tail), which incidentally *helps* locality
  /// by letting clones appear before the job resurfaces.
  bool requeue_to_back = false;
};

class BaselineScheduler final : public PullSchedulerBase {
 public:
  explicit BaselineScheduler(BaselineConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "baseline"; }

  void on_worker_idle(cluster::WorkerIndex w) override { worker_request(w); }
  void on_worker_capacity(cluster::WorkerIndex w) override { worker_request(w); }
  void on_worker_recovered(cluster::WorkerIndex w) override {
    // The crash may have eaten an in-flight request/offer; forget the
    // pending flag so the recovered worker polls again.
    request_pending_[w] = false;
    worker_request(w);
  }

  /// Offer/decline counters.
  struct Stats {
    std::uint64_t offers_made = 0;
    std::uint64_t offers_declined = 0;
    std::uint64_t forced_accepts = 0;   ///< accepted only because of the decline cap
    std::uint64_t offers_timed_out = 0; ///< fault injection: offer/response lost
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 protected:
  void attach_extra() override;
  void handle_work_request(cluster::WorkerIndex w) override;
  [[nodiscard]] bool watchdog_needed() const override {
    return !queue_.empty() || !in_flight_.empty();
  }
  void watchdog_poke(cluster::WorkerIndex w) override;

 private:
  /// Fault injection: an offer (or its response) was lost; reclaim the job.
  void expire_offer(std::uint64_t offer_id);
  /// Worker-side: true if `w` can take one more job into its local queue.
  [[nodiscard]] bool has_capacity(cluster::WorkerIndex w) const;

  /// Worker-side: sends a WorkRequest after one heartbeat, unless one is
  /// already pending (scheduled, in flight, or parked at the master).
  void worker_request(cluster::WorkerIndex w);

  /// Worker-side: evaluate an offer against the acceptance criteria.
  void worker_handle_offer(cluster::WorkerIndex w, const cluster::JobOffer& offer);

  /// Master-side: handle the worker's accept/decline.
  void master_handle_response(const cluster::OfferResponse& response);

  /// Interns the scheduler's span names on first traced use.
  void ensure_trace_names();

  /// Master-side view of an offer in flight (job travelling with it).
  struct PendingOffer {
    workflow::Job job;
    Tick offered_at = 0;
  };

  BaselineConfig config_;
  Stats stats_;
  /// Registry instruments fed per offer, found on first use (reset by
  /// attach_extra()).
  metrics::LazyRef<metrics::Counter> offers_;
  metrics::LazyRef<metrics::Histogram> offer_roundtrip_s_;
  /// Worker-side memory of declined jobs: declines_[w][job] = count.
  std::vector<std::unordered_map<workflow::JobId, std::uint32_t>> declines_;
  /// Worker-side: a request is scheduled/in flight/parked for this worker.
  std::vector<bool> request_pending_;
  /// Master-side: offers in flight.
  std::unordered_map<std::uint64_t, PendingOffer> in_flight_;
  std::uint64_t next_offer_ = 1;
  std::uint16_t trace_accept_ = 0;  ///< "offer_accept": offer -> accepted span
  std::uint16_t trace_reject_ = 0;  ///< "offer_reject": offer -> declined span
  bool trace_names_ready_ = false;
};

}  // namespace dlaja::sched
