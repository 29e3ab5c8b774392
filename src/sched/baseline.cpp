#include "sched/baseline.hpp"

#include <any>
#include <cassert>

#include "obs/trace.hpp"

namespace dlaja::sched {

using cluster::JobOffer;
using cluster::OfferResponse;
using cluster::WorkerIndex;
using cluster::WorkRequest;

void BaselineScheduler::attach_extra() {
  declines_.assign(ctx_.worker_count(), {});
  request_pending_.assign(ctx_.worker_count(), false);

  // Workers evaluate offers locally (this is where the "opinion" lives).
  for (WorkerIndex w = 0; w < ctx_.worker_count(); ++w) {
    if (ctx_.workers[w] == nullptr) continue;  // outside this context's partition
    ctx_.broker->register_mailbox(
        ctx_.worker_nodes[w], cluster::mailboxes::kOffers,
        [this, w](const msg::Message& message) {
          if (message.payload.type() == typeid(cluster::NoWorkNotice)) {
            request_pending_[w] = false;
            worker_request(w);
            return;
          }
          worker_handle_offer(w, message.payload.as<JobOffer>());
        });
  }

  ctx_.broker->register_mailbox(
      ctx_.master_node, cluster::mailboxes::kOfferResponses,
      [this](const msg::Message& message) {
        master_handle_response(message.payload.as<OfferResponse>());
      });

  if (ctx_.probes != nullptr) {
    // Offers the master sent and has not heard back about.
    ctx_.probes->add_gauge("sched.offers_in_flight", 0, [this] {
      return static_cast<double>(in_flight_.size());
    });
  }
}

void BaselineScheduler::ensure_trace_names() {
  if (trace_names_ready_) return;
  trace_names_ready_ = true;
  trace_accept_ = ctx_.sim->tracer()->intern("offer_accept");
  trace_reject_ = ctx_.sim->tracer()->intern("offer_reject");
}

bool BaselineScheduler::has_capacity(WorkerIndex w) const {
  const cluster::WorkerNode* worker = ctx_.workers[w];
  const std::size_t in_hand = worker->queue_length() + worker->busy_slots();
  return in_hand < worker->config().slots + static_cast<std::size_t>(config_.prefetch_depth);
}

void BaselineScheduler::worker_request(WorkerIndex w) {
  if (request_pending_[w]) return;
  cluster::WorkerNode* worker = ctx_.workers[w];
  if (worker == nullptr || worker->failed() || !has_capacity(w)) return;
  request_pending_[w] = true;
  const Tick heartbeat = ticks_from_millis(worker->config().heartbeat_ms);
  ctx_.sim->schedule_after(heartbeat, [this, w] {
    cluster::WorkerNode* again = ctx_.workers[w];
    if (again->failed() || !has_capacity(w)) {
      request_pending_[w] = false;
      return;
    }
    // The flag stays set until the master answers (offer) or the worker is
    // parked and later served — there is exactly one request in flight.
    ctx_.broker->send(ctx_.worker_nodes[w], ctx_.master_node,
                      cluster::mailboxes::kWorkRequests, WorkRequest{w});
  });
}

namespace {
/// Fault injection: how long the master waits for an offer's response before
/// reclaiming the job. Generous versus the heartbeat so it only fires when
/// the offer or its response was actually lost.
constexpr double kOfferTimeoutS = 10.0;
}  // namespace

void BaselineScheduler::handle_work_request(WorkerIndex w) {
  // The requesting worker pulls the job at the head of the master's queue.
  assert(!queue_.empty());
  workflow::Job job = queue_.front();
  queue_.pop_front();

  const std::uint64_t offer_id = next_offer_++;
  JobOffer offer;
  offer.offer = offer_id;
  offer.job = job;
  offer.round = ctx_.metrics->job(job.id).offers_rejected;
  in_flight_.emplace(offer_id, PendingOffer{std::move(job), ctx_.sim->now()});
  ++stats_.offers_made;
  ctx_.metrics->registry().counter("sched.offers").add(1);
  ctx_.broker->send(ctx_.master_node, ctx_.worker_nodes[w], cluster::mailboxes::kOffers,
                    offer);
  if (ctx_.fault_aware) {
    auto expire = [this, offer_id] { expire_offer(offer_id); };
    static_assert(sim::InlineAction::fits_inline<decltype(expire)>());
    ctx_.sim->schedule_after(ticks_from_seconds(kOfferTimeoutS), std::move(expire));
  }
}

void BaselineScheduler::expire_offer(std::uint64_t offer_id) {
  const auto it = in_flight_.find(offer_id);
  if (it == in_flight_.end()) return;  // answered in time
  workflow::Job job = std::move(it->second.job);
  in_flight_.erase(it);
  ++stats_.offers_timed_out;
  // Back to the head: the job keeps its place while another worker is found.
  // If the worker did accept and only the response was lost, the re-offer
  // causes at most a duplicate execution — at-least-once, never lost.
  queue_.push_front(std::move(job));
  dispatch_parked();
  arm_watchdog();
}

void BaselineScheduler::watchdog_poke(WorkerIndex w) {
  // A dropped offer leaves request_pending_ stuck true and the worker mute;
  // forget it and poll again (worker_request dedupes healthy chains only
  // when the flag is accurate, and a spurious duplicate is harmless).
  request_pending_[w] = false;
  worker_request(w);
}

void BaselineScheduler::worker_handle_offer(WorkerIndex w, const JobOffer& offer) {
  request_pending_[w] = false;
  cluster::WorkerNode* worker = ctx_.workers[w];
  if (worker == nullptr || worker->failed()) return;  // the offer is lost with the worker

  auto& declined = declines_[w];
  const auto it = declined.find(offer.job.id);
  const std::uint32_t decline_count = it != declined.end() ? it->second : 0;

  // Acceptance criteria (application-defined in Crossflow; data locality
  // here): accept when the data is local, when the job needs no data, or
  // when this worker has exhausted its declines for the job. A lifecycle
  // retry's excluded worker (the one that just failed the job) declines
  // until the cap forces it — soft exclusion, so a lone survivor still
  // takes the job instead of livelocking.
  const bool excluded = offer.job.excluded_worker == w;
  const bool must_accept = decline_count >= config_.max_declines_per_worker;
  const bool accept = (worker->has_local(offer.job) && !excluded) || must_accept;

  OfferResponse response;
  response.offer = offer.offer;
  response.job_id = offer.job.id;
  response.worker = w;
  response.accepted = accept;

  if (accept) {
    if (must_accept && !worker->has_local(offer.job)) ++stats_.forced_accepts;
    // The worker already holds the pulled job: acceptance *is* the
    // allocation decision, so stamp the assignment here and start work;
    // the response only informs the master.
    metrics::JobRecord& record = ctx_.metrics->job(offer.job.id);
    record.assigned = ctx_.sim->now();
    record.worker = w;
    worker->enqueue(offer.job);
    if (ctx_.notify_assigned) {
      ctx_.notify_assigned(offer.job.id, w, worker->estimate_bid_s(offer.job));
    }
  } else {
    declined[offer.job.id] = decline_count + 1;
    ++ctx_.metrics->worker(w).offers_declined;
  }
  ctx_.broker->send(ctx_.worker_nodes[w], ctx_.master_node,
                    cluster::mailboxes::kOfferResponses, response);
  // Whether the job was taken or returned, the worker may still have (or
  // have regained) capacity: keep pulling, one heartbeat at a time.
  worker_request(w);
}

void BaselineScheduler::master_handle_response(const OfferResponse& response) {
  const auto it = in_flight_.find(response.offer);
  if (it == in_flight_.end()) return;  // duplicate/unknown
  workflow::Job job = std::move(it->second.job);
  const Tick offered_at = it->second.offered_at;
  in_flight_.erase(it);

  if (DLAJA_TRACE_ACTIVE(ctx_.sim->tracer())) {
    ensure_trace_names();
    ctx_.sim->tracer()->span(obs::Component::kSched,
                             response.accepted ? trace_accept_ : trace_reject_,
                             response.worker, offered_at, ctx_.sim->now(), job.id);
  }
  ctx_.metrics->registry()
      .histogram("sched.offer_roundtrip_s")
      .record(seconds_from_ticks(ctx_.sim->now() - offered_at));

  if (response.accepted) return;  // assignment was stamped at the worker
  metrics::JobRecord& record = ctx_.metrics->job(job.id);
  ++stats_.offers_declined;
  ++record.offers_rejected;
  // "It is returned to the master so another worker can consider it."
  if (config_.requeue_to_back) {
    queue_.push_back(std::move(job));
  } else {
    queue_.push_front(std::move(job));
  }
  dispatch_parked();
}

}  // namespace dlaja::sched
