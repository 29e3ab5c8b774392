#include "sched/bidding.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace dlaja::sched {

using cluster::BidRequest;
using cluster::BidSubmission;
using cluster::DirectPlacement;
using cluster::JobAssignment;
using cluster::LoadReport;
using cluster::PlacementResponse;
using cluster::WorkerIndex;

namespace {

/// The transfer + processing part of a bid, from the master's cached view:
/// the worker's nominal speeds (its immutable config) and the resources the
/// master believes resident there. This is Listing 2 lines 4-5 evaluated
/// without asking the worker.
double cached_work_s(const LoadCache& cache, const cluster::WorkerNode& worker,
                     const workflow::Job& job) {
  const cluster::WorkerConfig& config = worker.config();
  double transfer_s = 0.0;
  if (job.needs_resource() && !cache.believes_resident(worker.index(), job.resource)) {
    transfer_s = job.resource_size_mb / std::max(config.network_mbps, 1e-9);
  }
  const double processing_s =
      job.process_mb / std::max(config.rw_mbps, 1e-9) + seconds_from_ticks(job.fixed_cost);
  return transfer_s + processing_s;
}

}  // namespace

void BiddingScheduler::attach(const SchedulerContext& ctx) {
  ctx_ = ctx;
  correction_.assign(ctx_.worker_count(), 1.0);

  // Resolve the protocol's topic and mailbox names once: every publish/send
  // below goes through dense ids, never a string hash.
  bid_topic_ = ctx_.broker->topic(ctx_.scoped(cluster::topics::kBidRequests));
  jobs_box_ = ctx_.broker->mailbox(cluster::mailboxes::kJobs);
  bids_box_ = ctx_.broker->mailbox(cluster::mailboxes::kBids);

  // Worker side: every worker listens for bid broadcasts and for direct
  // job assignments.
  for (WorkerIndex w = 0; w < ctx_.worker_count(); ++w) {
    cluster::WorkerNode* worker = ctx_.workers[w];
    if (worker == nullptr) continue;  // outside this context's partition
    ctx_.broker->subscribe(bid_topic_, ctx_.worker_nodes[w],
                           [this, w](const msg::Message& message) {
                             worker_handle_bid_request(w, message.payload.as<BidRequest>());
                           });
    ctx_.broker->register_mailbox(ctx_.worker_nodes[w], cluster::mailboxes::kJobs,
                                  [worker](const msg::Message& message) {
                                    worker->enqueue(message.payload.as<JobAssignment>().job);
                                  });
  }

  // Master side: collect bids.
  ctx_.broker->register_mailbox(
      ctx_.master_node, cluster::mailboxes::kBids, [this](const msg::Message& message) {
        master_receive_bid(message.payload.as<BidSubmission>());
      });

  // The probe substream exists only when contests probe (probe mode, and
  // cached mode's decline-fallback re-contests): full-fanout runs must draw
  // exactly the streams the historical implementation drew.
  if (config_.fanout.contest_probes()) {
    const std::uint64_t seed =
        ctx_.seeds != nullptr ? ctx_.seeds->seed_for("sched/bidding/probe") : 1;
    probe_rng_.emplace(seed);
  }

  if (config_.fanout.cached()) {
    cache_.reset(ctx_.worker_count());
    // Candidate sampling draws from its own named substream so cache-mode
    // placements never perturb the fallback contests' probe stream.
    const std::uint64_t cache_seed =
        ctx_.seeds != nullptr ? ctx_.seeds->seed_for("fanout/cache") : 2;
    cache_rng_.emplace(cache_seed);

    placements_box_ = ctx_.broker->mailbox(cluster::mailboxes::kPlacements);
    placement_acks_box_ = ctx_.broker->mailbox(cluster::mailboxes::kPlacementAcks);
    load_reports_box_ = ctx_.broker->mailbox(cluster::mailboxes::kLoadReports);
    for (WorkerIndex w = 0; w < ctx_.worker_count(); ++w) {
      if (ctx_.workers[w] == nullptr) continue;
      ctx_.broker->register_mailbox(
          ctx_.worker_nodes[w], cluster::mailboxes::kPlacements,
          [this, w](const msg::Message& message) {
            worker_handle_placement(w, message.payload.as<DirectPlacement>());
          });
    }
    ctx_.broker->register_mailbox(
        ctx_.master_node, cluster::mailboxes::kPlacementAcks,
        [this](const msg::Message& message) {
          master_receive_placement_ack(message.payload.as<PlacementResponse>());
        });
    ctx_.broker->register_mailbox(
        ctx_.master_node, cluster::mailboxes::kLoadReports,
        [this](const msg::Message& message) {
          master_receive_load_report(message.payload.as<LoadReport>());
        });
  }

  if (ctx_.probes != nullptr) {
    // Master-side contest pressure.
    ctx_.probes->add_gauge("sched.contests_open", 0, [this] {
      return static_cast<double>(contests_.size());
    });
    if (config_.fanout.cached()) {
      // Believed-vs-actual backlog error of the load cache, as a signed sum:
      // one gauge contributes +sum(cached backlog) and one per worker
      // -its actual backlog, so the series is (believed - actual) seconds.
      ctx_.probes->add_gauge("cache.load_error_s", 0, [this] {
        double believed = 0.0;
        for (std::size_t w = 0; w < cache_.size(); ++w) {
          believed += cache_.backlog_s(static_cast<WorkerIndex>(w));
        }
        return believed;
      });
      for (WorkerIndex w = 0; w < ctx_.worker_count(); ++w) {
        cluster::WorkerNode* worker = ctx_.workers[w];
        if (worker == nullptr) continue;
        ctx_.probes->add_gauge("cache.load_error_s", 0,
                               [worker] { return -worker->backlog_cost_s(); });
      }
    }
  }
}

void BiddingScheduler::ensure_trace_names() {
  if (trace_names_ready_) return;
  trace_names_ready_ = true;
  trace_contest_ = ctx_.sim->tracer()->intern("contest");
  trace_bid_ = ctx_.sim->tracer()->intern("bid");
  if (config_.fanout.cached()) {
    trace_cache_hit_ = ctx_.sim->tracer()->intern("fanout.cache_hit");
    trace_stale_decline_ = ctx_.sim->tracer()->intern("fanout.stale_decline");
    trace_msgs_per_job_ = ctx_.sim->tracer()->intern("fanout.msgs_per_job");
  }
}

void BiddingScheduler::submit(const workflow::Job& job) {
  if (config_.fanout.cached()) {
    place_cached(job);
    return;
  }
  contest_or_backlog(job);
}

void BiddingScheduler::contest_or_backlog(const workflow::Job& job) {
  if (config_.serialize_contests && !contests_.empty()) {
    backlog_.push_back(job);  // the master finishes the current contest first
    return;
  }
  open_contest(job);
}

double BiddingScheduler::cached_cost_s(WorkerIndex w, const workflow::Job& job) const {
  // Listing 2 over the cache: the worker's believed backlog drains
  // slots-wide, then the job's own transfer + processing on nominal speeds.
  const cluster::WorkerNode& worker = *ctx_.workers[w];
  const double lanes =
      static_cast<double>(std::max<std::uint32_t>(1, worker.config().slots));
  return cache_.backlog_s(w) / lanes + cached_work_s(cache_, worker, job);
}

void BiddingScheduler::place_cached(const workflow::Job& job) {
  // Power-of-k-choices candidate sampling in O(k), not O(fleet): draw
  // distinct indices by rejection from the whole index range on the cache's
  // own substream — at 10k workers an exact alive-scan per placement would
  // dominate the decision cost and erase the win over probe contests. Only
  // when the bounded draws keep hitting failed or duplicate workers (most
  // of the fleet is down) does it fall back to the exact scan + partial
  // Fisher-Yates, so termination never depends on luck.
  const std::size_t fleet = ctx_.worker_count();
  const auto want =
      fleet == 0 ? 0u
                 : static_cast<std::uint32_t>(
                       std::min<std::size_t>(config_.fanout.probe_k, fleet));
  probe_scratch_.clear();
  const std::uint32_t max_attempts = 8 * want + 8;
  for (std::uint32_t attempts = 0;
       probe_scratch_.size() < want && attempts < max_attempts; ++attempts) {
    const auto w = static_cast<WorkerIndex>(
        cache_rng_->uniform_int(0, static_cast<std::uint64_t>(fleet - 1)));
    if (ctx_.workers[w] == nullptr || ctx_.workers[w]->failed()) continue;
    if (std::find(probe_scratch_.begin(), probe_scratch_.end(), w) !=
        probe_scratch_.end()) {
      continue;
    }
    probe_scratch_.push_back(w);
  }
  if (probe_scratch_.size() < want || fleet == 0) {
    probe_scratch_.clear();
    for (WorkerIndex w = 0; w < fleet; ++w) {
      if (ctx_.workers[w] != nullptr && !ctx_.workers[w]->failed()) probe_scratch_.push_back(w);
    }
    if (probe_scratch_.empty()) {
      // Nobody alive to place on — same terminal handling as a zero-live
      // contest: the lifecycle retries or dead-letters, never a fake assign.
      ++stats_.unassignable_jobs;
      ctx_.metrics->job(job.id).bids_received = 0;
      DLAJA_LOG(kWarn, "bidding") << ctx_.sim->log_prefix() << "no live worker for job "
                                  << job.id
                                  << (ctx_.notify_unassignable ? "; handing to lifecycle"
                                                               : "; job dropped");
      if (ctx_.notify_unassignable) ctx_.notify_unassignable(job);
      return;
    }
    const auto k = static_cast<std::uint32_t>(
        std::min<std::size_t>(want, probe_scratch_.size()));
    for (std::uint32_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::uint32_t>(cache_rng_->uniform_int(
                             0, static_cast<std::uint64_t>(probe_scratch_.size() - 1 - i)));
      std::swap(probe_scratch_[i], probe_scratch_[j]);
    }
    probe_scratch_.resize(k);
  }

  // Score the sampled candidates with the cached bid formula. The
  // retry-excluded worker wins only when it is the sole live candidate
  // (soft exclusion).
  const auto excluded = static_cast<WorkerIndex>(job.excluded_worker);
  WorkerIndex best = cluster::kNoWorker;
  double best_cost = std::numeric_limits<double>::infinity();
  WorkerIndex best_excluded = cluster::kNoWorker;
  double best_excluded_cost = std::numeric_limits<double>::infinity();
  for (const WorkerIndex w : probe_scratch_) {
    const double cost = cached_cost_s(w, job);
    if (w == excluded) {
      if (cost < best_excluded_cost) {
        best_excluded = w;
        best_excluded_cost = cost;
      }
      continue;
    }
    if (cost < best_cost) {
      best = w;
      best_cost = cost;
    }
  }
  if (best == cluster::kNoWorker) {
    best = best_excluded;
    best_cost = best_excluded_cost;
  }

  // The worker judges staleness against the backlog the decision believed,
  // so the expected value is captured before the optimistic charge.
  const double expected_backlog_s = cache_.backlog_s(best);

  metrics::JobRecord& record = ctx_.metrics->job(job.id);
  record.assigned = ctx_.sim->now();
  record.worker = best;
  record.winning_bid_s = best_cost;
  record.bids_received = 0;  // no contest, no bids
  ++ctx_.metrics->worker(best).bids_won;

  placements_.emplace(job.id, Placement{job, best, cache_.generation(best)});
  placed_estimates_.emplace(job.id, PlacedEstimate{best_cost, ctx_.sim->now()});
  cache_.charge(best, cached_work_s(cache_, *ctx_.workers[best], job), job.resource);

  ++stats_.placements;
  ++stats_.control_messages;  // the placement itself
  ctx_.metrics->registry().counter("fanout.placements").add(1);

  ctx_.broker->send(ctx_.master_node, ctx_.worker_nodes[best], placements_box_,
                    DirectPlacement{job, expected_backlog_s});
  if (ctx_.notify_assigned) ctx_.notify_assigned(job.id, best, best_cost);
}

void BiddingScheduler::worker_handle_placement(WorkerIndex w, const DirectPlacement& p) {
  cluster::WorkerNode* worker = ctx_.workers[w];
  if (worker == nullptr || worker->failed()) return;

  // Late binding (Listing 2's estimate, judged locally): accept when the
  // actual backlog is no worse than the master's cached view plus slack;
  // decline otherwise — the cache was stale. Either way the reply carries
  // the authoritative backlog, so even a decline refreshes the cache.
  const double backlog_before_s = worker->backlog_cost_s();
  const bool accept =
      backlog_before_s <= p.expected_backlog_s + config_.decline_slack_s;
  if (accept) worker->enqueue(p.job);
  const PlacementResponse resp{p.job.id, w, accept,
                               accept ? worker->backlog_cost_s() : backlog_before_s};

  // Same reply shape as a bid: compute delay at the worker, then cross back
  // through the broker.
  const Tick delay = worker->sample_bid_delay();
  auto reply = [this, w, resp] {
    cluster::WorkerNode* again = ctx_.workers[w];
    if (again->failed()) return;
    ctx_.broker->send(ctx_.worker_nodes[w], ctx_.master_node, placement_acks_box_, resp);
  };
  static_assert(sim::InlineAction::fits_inline<decltype(reply)>());
  ctx_.sim->schedule_after(delay, std::move(reply));
}

void BiddingScheduler::trace_msgs_per_job() {
  if (!DLAJA_TRACE_ACTIVE(ctx_.sim->tracer())) return;
  ensure_trace_names();
  const double per_job =
      static_cast<double>(stats_.control_messages) /
      static_cast<double>(std::max<std::uint64_t>(1, stats_.placements));
  ctx_.sim->tracer()->counter(obs::Component::kSched, trace_msgs_per_job_, 0,
                              ctx_.sim->now(), per_job);
}

void BiddingScheduler::master_receive_placement_ack(const PlacementResponse& resp) {
  ++stats_.control_messages;
  const auto it = placements_.find(resp.job_id);
  if (it == placements_.end()) {
    // The placement was already voided (lease expiry beat the ack) — the
    // lifecycle owns the job now; the ack is only history.
    ++stats_.late_placement_acks;
    return;
  }
  Placement entry = std::move(it->second);
  placements_.erase(it);

  // Authoritative refresh, stamped with the generation the placement saw:
  // if the slot was invalidated in between, the slab rule drops it.
  cache_.refresh(resp.worker, entry.generation, resp.backlog_s);

  metrics::Registry& registry = ctx_.metrics->registry();
  if (resp.accepted) {
    ++stats_.cache_hits;
    registry.counter("fanout.cache_hits").add(1);
    if (DLAJA_TRACE_ACTIVE(ctx_.sim->tracer())) {
      ensure_trace_names();
      ctx_.sim->tracer()->instant(obs::Component::kSched, trace_cache_hit_, resp.worker,
                                  ctx_.sim->now(), resp.job_id);
    }
  } else {
    ++stats_.stale_declines;
    registry.counter("fanout.stale_declines").add(1);
    // The declined worker never ran the job, so its cached estimate is
    // meaningless for placement quality.
    placed_estimates_.erase(resp.job_id);
    if (DLAJA_TRACE_ACTIVE(ctx_.sim->tracer())) {
      ensure_trace_names();
      ctx_.sim->tracer()->instant(obs::Component::kSched, trace_stale_decline_,
                                  resp.worker, ctx_.sim->now(), resp.job_id);
    }
    // Exactly one fallback: a probe:k re-contest. Contest assignments go
    // straight to enqueue (no second chance to decline), so a job declines
    // at most once by construction.
    contest_or_backlog(entry.job);
  }
  trace_msgs_per_job();
}

void BiddingScheduler::master_receive_load_report(const LoadReport& report) {
  ++stats_.control_messages;
  if (report.worker >= cache_.size()) return;
  // A report can outrun the master's knowledge of a crash only briefly;
  // once the worker is known dead its slot waits for revive(). (failed()
  // flags flip at window barriers, so this master-side read is safe.)
  if (ctx_.workers[report.worker] == nullptr || ctx_.workers[report.worker]->failed()) return;
  cache_.refresh(report.worker, cache_.generation(report.worker), report.backlog_s);
}

std::uint32_t BiddingScheduler::solicit_probes(std::uint64_t contest_id,
                                               const workflow::Job& job) {
  probe_scratch_.clear();
  for (WorkerIndex w = 0; w < ctx_.worker_count(); ++w) {
    if (ctx_.workers[w] != nullptr && !ctx_.workers[w]->failed()) probe_scratch_.push_back(w);
  }
  const auto k = static_cast<std::uint32_t>(
      std::min<std::size_t>(config_.fanout.probe_k, probe_scratch_.size()));
  // Partial Fisher-Yates: the first k slots become a uniform k-subset, in
  // the (seeded) shuffle's order.
  probe_targets_.clear();
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::uint32_t>(probe_rng_->uniform_int(
                           0, static_cast<std::uint64_t>(probe_scratch_.size() - 1 - i)));
    std::swap(probe_scratch_[i], probe_scratch_[j]);
    probe_targets_.push_back(ctx_.worker_nodes[probe_scratch_[i]]);
  }
  stats_.probes_sent += k;
  if (config_.fanout.cached()) stats_.control_messages += k;  // fallback probes
  ctx_.broker->publish_to(bid_topic_, ctx_.master_node, BidRequest{contest_id, job},
                          probe_targets_);
  return k;
}

void BiddingScheduler::open_contest(const workflow::Job& job) {
  // Listing 1, sendJob: publish for bidding and open the contest.
  const std::uint64_t contest_id = next_contest_++;
  Contest& contest = contests_[contest_id];
  contest.job = job;
  contest.bids.reset(static_cast<WorkerIndex>(job.excluded_worker));
  ++stats_.contests_opened;

  metrics::JobRecord& record = ctx_.metrics->job(job.id);
  record.contest_opened = ctx_.sim->now();

  if (config_.fanout.contest_probes()) {
    contest.solicited = solicit_probes(contest_id, job);
  } else {
    ctx_.broker->publish(bid_topic_, ctx_.master_node, BidRequest{contest_id, job});
  }
  contest.timeout = ctx_.sim->schedule_after(ticks_from_seconds(config_.window_s),
                                             [this, contest_id] {
                                               ++stats_.contests_closed_timeout;
                                               close_contest(contest_id);
                                             });
}

void BiddingScheduler::worker_handle_bid_request(WorkerIndex w, const BidRequest& request) {
  cluster::WorkerNode* worker = ctx_.workers[w];
  if (worker == nullptr || worker->failed()) return;

  // Listing 2, sendBid: backlog + transfer estimate + processing estimate.
  double cost_s = worker->estimate_bid_s(request.job);
  if (config_.learn_correction) cost_s *= correction_[w];

  // The bidding thread needs time to compute the estimate and may straggle;
  // the reply then crosses the network back to the master through the
  // broker.
  const Tick delay = worker->sample_bid_delay();
  BidSubmission bid{request.contest, request.job.id, w, cost_s};
  // Cached fan-out: piggy-back the raw backlog so even fallback contests
  // refresh the master's load cache for free.
  if (config_.fanout.cached()) bid.backlog_s = worker->backlog_cost_s();
  auto submit = [this, w, bid] {
    cluster::WorkerNode* again = ctx_.workers[w];
    if (again->failed()) return;
    ++ctx_.metrics->worker(w).bids_submitted;
    ctx_.broker->send(ctx_.worker_nodes[w], ctx_.master_node, bids_box_, bid);
  };
  static_assert(sim::InlineAction::fits_inline<decltype(submit)>());
  ctx_.sim->schedule_after(delay, std::move(submit));
}

void BiddingScheduler::master_receive_bid(const BidSubmission& bid) {
  // Cached fan-out: every bid carries the worker's authoritative backlog —
  // refresh the cache even for late/duplicate bids, before any early-out.
  if (config_.fanout.cached() && bid.worker < cache_.size() &&
      ctx_.workers[bid.worker] != nullptr && !ctx_.workers[bid.worker]->failed()) {
    ++stats_.control_messages;
    cache_.refresh(bid.worker, cache_.generation(bid.worker), bid.backlog_s);
  }

  // Listing 1, receiveBid.
  const auto it = contests_.find(bid.contest);
  if (it == contests_.end()) {
    ++stats_.late_bids_ignored;  // contest already closed
    return;
  }
  Contest& contest = it->second;
  // Dedupe per worker: a duplicated message (injectable via the broker's
  // fault policy) must not count the same worker twice toward the quorum
  // and close the contest with a live worker's bid still in flight.
  if (!contest.bids.insert(bid.worker, bid.cost_s)) {
    ++stats_.duplicate_bids_ignored;
    return;
  }
  if (DLAJA_TRACE_ACTIVE(ctx_.sim->tracer())) {
    ensure_trace_names();
    ctx_.sim->tracer()->instant(obs::Component::kSched, trace_bid_, bid.worker,
                                ctx_.sim->now(), bid.job_id);
  }

  // biddingFinished: the quorum is every active worker (full fan-out; the
  // timeout branch is the scheduled event from open_contest) or every
  // solicited worker (probe fan-out). bids.size() counts distinct workers.
  const std::size_t quorum =
      config_.fanout.contest_probes() ? contest.solicited : ctx_.active_workers();
  if (contest.bids.size() >= quorum) {
    ++stats_.contests_closed_full;
    close_contest(bid.contest);
  }
}

cluster::WorkerIndex BiddingScheduler::arbitrary_worker(WorkerIndex excluded) {
  const std::size_t n = ctx_.worker_count();
  WorkerIndex excluded_alive = cluster::kNoWorker;
  for (std::size_t probe = 0; probe < n; ++probe) {
    const auto w = static_cast<WorkerIndex>(fallback_cursor_++ % n);
    if (ctx_.workers[w] == nullptr || ctx_.workers[w]->failed()) continue;
    if (w == excluded) {
      excluded_alive = w;
      continue;
    }
    return w;
  }
  // Only the excluded worker survives (soft exclusion), or nobody does:
  // kNoWorker routes the job back to the lifecycle instead of "assigning"
  // it to a dead worker and polluting its metrics.
  return excluded_alive;
}

void BiddingScheduler::close_contest(std::uint64_t contest_id) {
  const auto it = contests_.find(contest_id);
  if (it == contests_.end()) return;  // already closed by the other path
  Contest contest = std::move(it->second);
  contests_.erase(it);
  ctx_.sim->cancel(contest.timeout);

  const auto excluded = static_cast<WorkerIndex>(contest.job.excluded_worker);
  WorkerIndex winner;
  double winning_cost = -1.0;
  if (contest.bids.empty()) {
    winner = arbitrary_worker(excluded);
    if (winner == cluster::kNoWorker) {
      // Zero bids because zero live workers: the job cannot be assigned.
      // Hand it to the lifecycle (retry/dead-letter) — or, without one,
      // drop it *without* stamping record.assigned / bids_won for an
      // assignment that never happened.
      ++stats_.unassignable_jobs;
      ctx_.metrics->job(contest.job.id).bids_received = 0;
      DLAJA_LOG(kWarn, "bidding") << ctx_.sim->log_prefix() << "no live worker for job "
                                  << contest.job.id
                                  << (ctx_.notify_unassignable ? "; handing to lifecycle"
                                                               : "; job dropped");
      if (ctx_.notify_unassignable) ctx_.notify_unassignable(contest.job);
      if (config_.serialize_contests && !backlog_.empty()) {
        const workflow::Job next = backlog_.front();
        backlog_.pop_front();
        open_contest(next);
      }
      return;
    }
    ++stats_.fallback_assignments;
    DLAJA_LOG(kDebug, "bidding") << ctx_.sim->log_prefix() << "no bids for job "
                                 << contest.job.id
                                 << "; arbitrary assignment to worker " << winner;
  } else {
    winning_cost = 0.0;
    winner = contest.bids.winner(&winning_cost);
  }

  metrics::JobRecord& record = ctx_.metrics->job(contest.job.id);
  record.assigned = ctx_.sim->now();
  record.worker = winner;
  record.winning_bid_s = winning_cost;
  record.bids_received = static_cast<std::uint32_t>(contest.bids.size());
  ++ctx_.metrics->worker(winner).bids_won;

  if (DLAJA_TRACE_ACTIVE(ctx_.sim->tracer())) {
    ensure_trace_names();
    ctx_.sim->tracer()->span(obs::Component::kSched, trace_contest_, winner,
                             record.contest_opened, ctx_.sim->now(), contest.job.id);
  }
  metrics::Registry& registry = ctx_.metrics->registry();
  registry.counter("sched.contests").add(1);
  registry.histogram("sched.contest_s")
      .record(seconds_from_ticks(ctx_.sim->now() - record.contest_opened));
  registry.histogram("sched.contest_bids").record(static_cast<double>(contest.bids.size()));

  if (config_.learn_correction && winning_cost > 0.0) {
    winning_estimate_s_[contest.job.id] = winning_cost;
    assigned_at_[contest.job.id] = ctx_.sim->now();
  }

  if (config_.fanout.cached()) {
    // A fallback assignment loads the winner just like a placement would:
    // keep the optimistic projection consistent so the next placement sees
    // this job in the winner's believed backlog.
    cache_.charge(winner, cached_work_s(cache_, *ctx_.workers[winner], contest.job),
                  contest.job.resource);
    ++stats_.control_messages;  // the assignment message
  }

  ctx_.broker->send(ctx_.master_node, ctx_.worker_nodes[winner], jobs_box_,
                    JobAssignment{contest.job});
  if (ctx_.notify_assigned) ctx_.notify_assigned(contest.job.id, winner, winning_cost);

  // Serial mode: the next queued job gets its contest now. By this point the
  // winner's queue (as seen through its future bids) includes this job's
  // estimate only after the assignment message lands; opening the next
  // contest immediately still gives workers distinct backlogs because bid
  // replies travel behind the assignment on the same links.
  if (config_.serialize_contests && !backlog_.empty()) {
    const workflow::Job next = backlog_.front();
    backlog_.pop_front();
    open_contest(next);
  }
}

void BiddingScheduler::on_assignment_void(workflow::JobId id, cluster::WorkerIndex w) {
  if (config_.fanout.cached()) {
    // The conversation died: forget the in-flight placement, and bump the
    // slot generation so any straggling ack/report from the dead attempt is
    // dropped by the slab rule instead of overwriting fresh state.
    placements_.erase(id);
    placed_estimates_.erase(id);
    if (w < cache_.size()) cache_.invalidate(w);
  }
  // The attempt died with the worker; a completion for it will never arrive,
  // so drop the learning state keyed on this job id (a retry gets a new id).
  winning_estimate_s_.erase(id);
  assigned_at_.erase(id);
}

void BiddingScheduler::on_worker_capacity(cluster::WorkerIndex w) {
  if (!config_.fanout.cached()) return;
  // Worker-side: a queue slot freed — report the
  // authoritative backlog so the master's cache decays toward truth even
  // when no placement conversation is in flight. This is the cache's
  // heartbeat channel; master-side counting happens on receipt.
  cluster::WorkerNode* worker = ctx_.workers[w];
  if (worker->failed()) return;
  ctx_.broker->send(ctx_.worker_nodes[w], ctx_.master_node, load_reports_box_,
                    LoadReport{w, worker->backlog_cost_s()});
}

void BiddingScheduler::on_worker_recovered(cluster::WorkerIndex w) {
  if (config_.fanout.cached() && w < cache_.size()) {
    // The revived worker rejoins with an empty queue; zero backlog is
    // genuine knowledge and refreshes from its previous life are stale.
    cache_.revive(w);
  }
  on_worker_idle(w);
}

void BiddingScheduler::on_completion(const cluster::CompletionReport& report) {
  if (config_.fanout.cached()) {
    const auto placed_it = placed_estimates_.find(report.job_id);
    if (placed_it != placed_estimates_.end()) {
      const double estimate_s = placed_it->second.estimate_s;
      const double actual_s =
          seconds_from_ticks(ctx_.sim->now() - placed_it->second.placed_at);
      placed_estimates_.erase(placed_it);
      if (estimate_s > 0.0 && actual_s > 0.0) {
        // Placement quality: how the cached estimate compared to reality
        // (1.0 = perfect; the BENCH_scale column summarises this).
        ctx_.metrics->registry()
            .histogram("fanout.placement_quality")
            .record(actual_s / estimate_s);
      }
    }
  }
  if (!config_.learn_correction) return;
  const auto est_it = winning_estimate_s_.find(report.job_id);
  const auto at_it = assigned_at_.find(report.job_id);
  if (est_it == winning_estimate_s_.end() || at_it == assigned_at_.end()) return;
  const double estimate_s = est_it->second;
  const double actual_s = seconds_from_ticks(ctx_.sim->now() - at_it->second);
  winning_estimate_s_.erase(est_it);
  assigned_at_.erase(at_it);
  if (estimate_s <= 0.0 || actual_s <= 0.0 || report.worker >= correction_.size()) return;
  const double ratio = actual_s / estimate_s;
  double& corr = correction_[report.worker];
  corr = (1.0 - config_.correction_alpha) * corr + config_.correction_alpha * ratio;
  // Keep the correction in a sane band; a single pathological job must not
  // blind a worker to all future contests.
  corr = std::min(std::max(corr, 0.25), 4.0);
}

}  // namespace dlaja::sched
