#pragma once
// The Bidding Scheduler — the paper's contribution (§5, Listings 1 and 2).
//
// The master broadcasts every incoming job for bidding; each worker replies
// with an estimate of when it could finish the job (current backlog + data
// transfer + processing, using its own speed knowledge). The master closes
// the contest when all active workers have bid or the bidding window (1 s)
// elapses, and assigns the job to the lowest bidder; if nobody bid in time
// the job goes to an arbitrary worker.
//
// Three extensions beyond the paper:
//  - Bid correction: workers learn from the history of their bids (the
//    paper's future-work idea), scaling future bids by a smoothed ratio of
//    actual to estimated completion time.
//  - Probe fan-out (FanoutPolicy probe:k): contests solicit a seeded random
//    k-subset of alive workers instead of broadcasting, bounding contest
//    cost at fleet scale. The default `full` policy is bit-identical to the
//    historical broadcast implementation.
//  - Cached fan-out (FanoutPolicy cached:k): the master keeps a per-worker
//    load/locality cache (LoadCache) refreshed from completion load
//    reports, placement acks and piggy-backed bids, and places each job
//    directly on the best of k seeded-random cached candidates — O(1)
//    messages per job. Late binding: the worker declines a placement whose
//    cached backlog view is stale, triggering exactly one fallback probe:k
//    re-contest, so correctness never depends on cache freshness.

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sched/bid_set.hpp"
#include "sched/fanout.hpp"
#include "sched/live_workers.hpp"
#include "sched/load_cache.hpp"
#include "sched/scheduler.hpp"

namespace dlaja::sched {

struct BiddingConfig {
  /// Bidding window: how long the master waits for bids (paper: 1 s).
  double window_s = 1.0;

  /// Run one contest at a time (paper semantics: the master "waits for
  /// workers to make submissions ... and looks into all the received bids
  /// before allocating the job"). Serial contests keep bids meaningful
  /// when jobs arrive in bursts — a worker's backlog already includes the
  /// previous winner's job when it bids on the next one. Disabling this
  /// opens a contest per arrival immediately (all bids then see the same
  /// backlog, so one worker can win an entire burst).
  bool serialize_contests = true;

  /// Future-work extension: learn multiplicative bid corrections from the
  /// history of (actual / estimated) completion times.
  bool learn_correction = false;

  /// EMA weight for new observations when learning corrections.
  double correction_alpha = 0.2;

  /// Contest fan-out: full broadcast (paper), a probed k-subset (scale), or
  /// direct placement on cached load estimates with late binding (cached).
  FanoutPolicy fanout;

  /// Cached fan-out only: how much worse (seconds) the worker's actual
  /// backlog may be than the master's cached view before it declines the
  /// placement. Generous slack trades placement quality for fewer fallback
  /// re-contests; a negative slack declines everything (test hook for the
  /// all-stale path).
  double decline_slack_s = 0.5;
};

class BiddingScheduler final : public Scheduler {
 public:
  explicit BiddingScheduler(BiddingConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    std::string name = "bidding";
    if (config_.learn_correction) name += "+learned";
    if (config_.fanout.contest_probes()) name += "+" + config_.fanout.describe();
    return name;
  }

  void attach(const SchedulerContext& ctx) override;
  void submit(const workflow::Job& job) override;
  void on_completion(const cluster::CompletionReport& report) override;
  void on_assignment_void(workflow::JobId id, cluster::WorkerIndex w) override;
  void on_worker_capacity(cluster::WorkerIndex w) override;
  void on_worker_recovered(cluster::WorkerIndex w) override;
  [[nodiscard]] std::size_t pending_jobs() const override {
    return contests_.size() + backlog_.size() + placements_.size();
  }

  /// Contest-level counters for the ablation benches.
  struct Stats {
    std::uint64_t contests_opened = 0;
    std::uint64_t contests_closed_full = 0;     ///< quorum of bids arrived
    std::uint64_t contests_closed_timeout = 0;  ///< window elapsed first
    std::uint64_t fallback_assignments = 0;     ///< zero bids -> arbitrary
    std::uint64_t late_bids_ignored = 0;
    std::uint64_t duplicate_bids_ignored = 0;   ///< same worker bid twice (dup faults)
    std::uint64_t unassignable_jobs = 0;        ///< zero bids and no live worker
    std::uint64_t probes_sent = 0;              ///< bid solicitations (probe mode)
    std::uint64_t placements = 0;               ///< direct placements (cached mode)
    std::uint64_t cache_hits = 0;               ///< placements the worker accepted
    std::uint64_t stale_declines = 0;           ///< placements declined -> fallback
    std::uint64_t late_placement_acks = 0;      ///< acks for already-voided placements
    /// Master-side control-plane messages (cached mode only): placements,
    /// acks, load reports, fallback probes/bids/assignments. The
    /// messages-per-job trace counter derives from it.
    std::uint64_t control_messages = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The master's load cache (cached fan-out only; empty otherwise).
  [[nodiscard]] const LoadCache& load_cache() const noexcept { return cache_; }

  [[nodiscard]] const BiddingConfig& config() const noexcept { return config_; }

 private:
  struct Contest {
    workflow::Job job;
    BidSet bids;
    /// Probe mode: how many workers this contest solicited — the quorum.
    /// Full mode leaves it 0: its quorum is every live worker, read from
    /// the live-worker index on each bid.
    std::uint32_t solicited = 0;
    sim::EventId timeout{};
  };

  /// A direct placement awaiting its accept/decline ack (cached mode).
  struct Placement {
    workflow::Job job;
    cluster::WorkerIndex worker = cluster::kNoWorker;
    std::uint32_t generation = 0;  ///< cache generation when placed
  };

  /// Placement-quality bookkeeping: the cached estimate a placement used,
  /// compared against the actual completion time (cached mode).
  struct PlacedEstimate {
    double estimate_s = 0.0;
    Tick placed_at = 0;
  };

  /// Opens a contest now, or queues the job behind the running one when
  /// contests are serialized (the historical submit() body).
  void contest_or_backlog(const workflow::Job& job);

  /// Master-side: open the contest for `job` (Listing 1, sendJob).
  void open_contest(const workflow::Job& job);

  /// Cached mode: pick the best of k seeded-random cached candidates and
  /// place the job directly (power-of-k-choices over cached cost
  /// estimates, late binding).
  void place_cached(const workflow::Job& job);

  /// Cached mode: the master's cost estimate for running a job on `w` —
  /// the same formula the worker computes locally (Listing 2), evaluated
  /// over the cached backlog plus `work_s`, the job's transfer + processing
  /// on believed-resident resources and the worker's nominal speeds
  /// (master-visible config, not probed state).
  [[nodiscard]] double cached_cost_s(cluster::WorkerIndex w, double work_s) const;

  /// Worker-side: accept or decline a direct placement at worker `w`.
  void worker_handle_placement(cluster::WorkerIndex w, const cluster::DirectPlacement& p);

  /// Master-side: placement ack — refresh the cache, count a hit, or run
  /// the one fallback re-contest on a decline.
  void master_receive_placement_ack(const cluster::PlacementResponse& resp);

  /// Master-side: asynchronous load refresh from a completion.
  void master_receive_load_report(const cluster::LoadReport& report);

  /// Emits the messages-per-job trace counter sample (traced cached runs).
  void trace_msgs_per_job();

  /// Probe mode: publish the request to a seeded random k-subset of alive
  /// workers; returns how many were solicited.
  std::uint32_t solicit_probes(std::uint64_t contest_id, const workflow::Job& job);

  /// Worker-side: handle a broadcast BidRequest at worker `w`.
  void worker_handle_bid_request(cluster::WorkerIndex w, const cluster::BidRequest& request);

  /// Master-side: Listing 1, receiveBid.
  void master_receive_bid(const cluster::BidSubmission& bid);

  /// Master-side: close a contest and assign the job (Listing 1 lines 10-14).
  void close_contest(std::uint64_t contest_id);

  /// Fallback when no bids arrived: rotate over currently active workers,
  /// preferring non-excluded ones. Returns kNoWorker when every worker is
  /// dead — the caller routes the job to the lifecycle instead of
  /// "assigning" it to a corpse.
  [[nodiscard]] cluster::WorkerIndex arbitrary_worker(cluster::WorkerIndex excluded);

  /// Interns the scheduler's span names on first traced use.
  void ensure_trace_names();

  /// The registry instruments this scheduler feeds per job, found on first
  /// use; attach() starts a fresh set for the new context's registry.
  struct Instruments {
    metrics::LazyRef<metrics::Counter> placements;
    metrics::LazyRef<metrics::Counter> cache_hits;
    metrics::LazyRef<metrics::Counter> stale_declines;
    metrics::LazyRef<metrics::Histogram> placement_quality;
    metrics::LazyRef<metrics::Counter> contests;
    metrics::LazyRef<metrics::Histogram> contest_s;
    metrics::LazyRef<metrics::Histogram> contest_bids;
  };

  BiddingConfig config_;
  SchedulerContext ctx_;
  Instruments instruments_;
  msg::TopicId bid_topic_ = msg::kInvalidInterned;   ///< resolved at attach
  msg::MailboxId jobs_box_ = msg::kInvalidInterned;  ///< worker job queues
  msg::MailboxId bids_box_ = msg::kInvalidInterned;  ///< master bid intake
  msg::MailboxId placements_box_ = msg::kInvalidInterned;      ///< worker placements
  msg::MailboxId placement_acks_box_ = msg::kInvalidInterned;  ///< master ack intake
  msg::MailboxId load_reports_box_ = msg::kInvalidInterned;    ///< master load refreshes
  std::uint16_t trace_contest_ = 0;       ///< "contest": open -> award span
  std::uint16_t trace_bid_ = 0;           ///< "bid": bid-received instant
  std::uint16_t trace_cache_hit_ = 0;     ///< "fanout.cache_hit" instants
  std::uint16_t trace_stale_decline_ = 0; ///< "fanout.stale_decline" instants
  std::uint16_t trace_msgs_per_job_ = 0;  ///< "fanout.msgs_per_job" counter
  bool trace_names_ready_ = false;
  std::unordered_map<std::uint64_t, Contest> contests_;
  std::deque<workflow::Job> backlog_;  ///< jobs awaiting their contest (serial mode)
  std::uint64_t next_contest_ = 1;
  std::uint64_t fallback_cursor_ = 0;
  Stats stats_;
  LiveWorkers live_;  ///< full mode's quorum; the pool probes and fallbacks sample

  /// Probe and cached modes only (never constructed under `full`, so
  /// full-fanout runs draw exactly the streams the historical
  /// implementation drew). Cached mode uses it for fallback re-contests.
  std::optional<RandomStream> probe_rng_;
  SubsetSampler sampler_;  ///< draws probe targets and cached fallback candidates
  std::vector<cluster::WorkerIndex> probe_scratch_;  ///< sampled workers: probes or candidates
  std::vector<net::NodeId> probe_targets_;           ///< solicited nodes per contest

  /// Cached mode only: the load cache, its dedicated candidate-sampling
  /// substream ("fanout/cache"), and the placements awaiting an ack.
  LoadCache cache_;
  std::optional<RandomStream> cache_rng_;
  std::unordered_map<workflow::JobId, Placement> placements_;
  std::unordered_map<workflow::JobId, PlacedEstimate> placed_estimates_;

  /// Extension state: per-worker multiplicative bid correction (worker-side
  /// knowledge, indexed by WorkerIndex).
  std::vector<double> correction_;
  /// Winning estimate per in-flight job, for computing actual/estimate.
  std::unordered_map<workflow::JobId, double> winning_estimate_s_;
  std::unordered_map<workflow::JobId, Tick> assigned_at_;
};

}  // namespace dlaja::sched
