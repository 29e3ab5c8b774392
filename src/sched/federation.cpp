#include "sched/federation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace dlaja::sched {

using cluster::LoadDigest;
using cluster::RouteJob;
using cluster::WorkerIndex;

FederatedScheduler::FederatedScheduler(const SchedulerSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  const std::uint32_t n = spec_.federation.partitions;
  if (n < 2) {
    throw std::invalid_argument("FederatedScheduler wants partitions >= 2 (got " +
                                std::to_string(n) + "); build the plain policy instead");
  }
  inst_.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    // Distinct seeds so the random policy's instances never mirror each
    // other; policies that draw from ctx.seeds get per-instance sequencers
    // in attach().
    inst_[p].policy = spec_.build_policy(seed_ + 7919ull * p);
    inst_[p].view_load.assign(n, 0.0);
    inst_[p].view_at.assign(n, kNeverSeen);
  }
}

std::string FederatedScheduler::name() const {
  return "fed(" + inst_.front().policy->name() + ")x" + std::to_string(partitions());
}

void FederatedScheduler::attach(const SchedulerContext& ctx) {
  ctx_ = ctx;
  digest_interval_ = ticks_from_seconds(spec_.federation.digest_interval_s);
  staleness_bound_ = ticks_from_seconds(spec_.federation.staleness_bound_s);
  adoption_grace_ = ticks_from_seconds(spec_.federation.adoption_grace_s);

  const std::size_t worker_count = ctx_.worker_count();
  part_of_.resize(worker_count);
  for (WorkerIndex w = 0; w < worker_count; ++w) {
    part_of_[w] = spec_.federation.partition_of(w, worker_count);
  }

  digest_topic_ = ctx_.broker->topic(cluster::topics::kFedDigests);
  fed_jobs_box_ = ctx_.broker->mailbox(cluster::mailboxes::kFedJobs);

  for (std::uint32_t p = 0; p < partitions(); ++p) {
    Instance& inst = inst_[p];
    const std::string tag = std::to_string(p);
    // Each instance is its own broker endpoint: crashing it (set_node_down)
    // severs exactly its inbound traffic, nothing else. It inherits the
    // master's link so partitioning never changes message timing.
    inst.node = ctx_.network->register_node("sched" + tag,
                                            ctx_.network->link(ctx_.master_node));
    inst.seeds = std::make_unique<SeedSequencer>(
        ctx_.seeds != nullptr ? ctx_.seeds->seed_for("fed/instance/" + tag)
                              : seed_ + p);

    // The masked view: the instance IS the master of its partition. Workers
    // outside it are null — guarded policy scans skip them — and topics it
    // interns are scoped so sibling broadcasts stay inaudible.
    SchedulerContext& mctx = inst.ctx;
    mctx = ctx_;
    mctx.master_node = inst.node;
    mctx.scope = "fed" + tag + "/";
    mctx.seeds = inst.seeds.get();
    for (WorkerIndex w = 0; w < worker_count; ++w) {
      if (part_of_[w] != p) mctx.workers[w] = nullptr;
    }
    // Interpose on the lifecycle hooks to track each routed job's state.
    // notify_assigned may be set even when the engine's is not (policies
    // only ever call it guarded); notify_unassignable must mirror the
    // engine's — its *presence* switches policy behaviour.
    mctx.notify_assigned = [this](workflow::JobId id, WorkerIndex w, double estimate_s) {
      mark_assigned(id);
      if (ctx_.notify_assigned) ctx_.notify_assigned(id, w, estimate_s);
    };
    if (ctx_.notify_unassignable) {
      mctx.notify_unassignable = [this](const workflow::Job& job) {
        const auto it = routed_.find(job.id);
        if (it != routed_.end()) drop_routed(it);
        ctx_.notify_unassignable(job);
      };
    }
    inst.policy->attach(mctx);

    ctx_.broker->register_mailbox(inst.node, cluster::mailboxes::kFedJobs,
                                  [this, p](const msg::Message& message) {
                                    on_route(p, message.payload.as<RouteJob>());
                                  });
    ctx_.broker->subscribe(digest_topic_, inst.node,
                           [this, p](const msg::Message& message) {
                             on_digest(p, message.payload.as<LoadDigest>());
                           });

    if (ctx_.probes != nullptr) {
      ctx_.probes->add_gauge("sched.partition_load.p" + tag, 0,
                             [this, p] { return own_load(p); });
    }
  }

  if (ctx_.probes != nullptr) {
    ctx_.probes->add_gauge("sched.spills", 0,
                           [this] { return static_cast<double>(stats_.spills); });
    // Worst digest age any live instance is acting on right now — the
    // observed eventual-consistency lag (bounded by staleness_bound_s as
    // long as digests keep flowing).
    ctx_.probes->add_gauge("sched.digest_age_s", 0, [this] {
      const Tick now = ctx_.sim->now();
      Tick worst = 0;
      for (const Instance& inst : inst_) {
        if (inst.down) continue;
        for (std::uint32_t q = 0; q < partitions(); ++q) {
          if (inst.view_at[q] == kNeverSeen) continue;
          worst = std::max(worst, now - inst.view_at[q]);
        }
      }
      return seconds_from_ticks(worst);
    });
  }

  // Touch the counters so every federated run carries the same stats
  // columns, spills or not (the fault.* counters get the same treatment in
  // the engine).
  count("fed.routed", 0);
  count("fed.spills", 0);
  count("fed.digests", 0);
  count("fed.adoptions", 0);
  count("fed.resends", 0);
}

std::size_t FederatedScheduler::live_members(std::uint32_t p) const {
  return inst_[p].live.of(inst_[p].ctx).size();
}

double FederatedScheduler::own_load(std::uint32_t p) const {
  const std::size_t live = live_members(p);
  return static_cast<double>(inst_[p].outstanding) /
         static_cast<double>(live == 0 ? 1 : live);
}

std::uint32_t FederatedScheduler::pick_home() {
  const std::size_t ring = part_of_.size();
  // First pass insists on live workers (the master learns of dead executors
  // out of band, like every push policy here); second pass settles for any
  // non-crashed instance so a fully-degraded partition still queues work
  // for its recovery.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t probe = 0; probe < ring; ++probe) {
      const std::size_t slot = (cursor_ + probe) % ring;
      const std::uint32_t p = part_of_[slot];
      if (inst_[p].down) continue;
      if (pass == 0 && live_members(p) == 0) continue;
      cursor_ = slot + 1;
      return p;
    }
  }
  return partitions();
}

std::uint32_t FederatedScheduler::pick_spill_target(std::uint32_t p) const {
  const FederationSpec& fed = spec_.federation;
  const double load = own_load(p);
  if (load <= fed.spill_threshold) return partitions();
  const Instance& inst = inst_[p];
  const Tick now = ctx_.sim->now();
  std::uint32_t best = partitions();
  double best_load = load;  // a target must be strictly lighter than us
  for (std::uint32_t q = 0; q < partitions(); ++q) {
    if (q == p || inst_[q].down) continue;
    if (inst.view_at[q] == kNeverSeen) continue;
    if (now - inst.view_at[q] > staleness_bound_) continue;  // too stale to trust
    if (inst.view_load[q] < best_load) {
      best_load = inst.view_load[q];
      best = q;
    }
  }
  return best;
}

std::uint32_t FederatedScheduler::successor_of(std::uint32_t crashed) const {
  const std::int32_t configured = spec_.federation.successor;
  if (configured >= 0 && static_cast<std::uint32_t>(configured) != crashed &&
      !inst_[static_cast<std::uint32_t>(configured)].down) {
    return static_cast<std::uint32_t>(configured);
  }
  for (std::uint32_t step = 1; step < partitions(); ++step) {
    const std::uint32_t q = (crashed + step) % partitions();
    if (!inst_[q].down) return q;
  }
  return partitions();
}

void FederatedScheduler::route(workflow::JobId id, Routed& entry, std::uint32_t target,
                               std::uint32_t hops, net::NodeId from) {
  entry.partition = target;
  entry.hops = hops;
  entry.sent_at = ctx_.sim->now();
  ctx_.broker->send(from, inst_[target].node, fed_jobs_box_, RouteJob{entry.job, hops});
  (void)id;
}

void FederatedScheduler::submit(const workflow::Job& job) {
  const std::uint32_t home = pick_home();
  if (home == partitions()) {
    // Every instance is down. With a lifecycle the job goes back for retry
    // or dead-lettering; without one this is unreachable (instances only go
    // down under fault plans, which force the lifecycle on).
    if (ctx_.notify_unassignable) {
      ctx_.notify_unassignable(job);
      return;
    }
  }
  const std::uint32_t target = home == partitions() ? part_of_[cursor_++ % part_of_.size()] : home;
  Routed& entry = routed_[job.id];
  entry.job = job;
  entry.state = Routed::State::kRouting;
  ++routing_count_;
  ++stats_.routed;
  count("fed.routed", 1);
  route(job.id, entry, target, 0, ctx_.master_node);
  if (ctx_.fault_aware) arm_watchdog();
}

void FederatedScheduler::on_route(std::uint32_t p, const RouteJob& r) {
  const auto it = routed_.find(r.job.id);
  // Anything but an in-flight route is a stale duplicate (a watchdog resend
  // whose original got through, or a completion that already landed).
  if (it == routed_.end() || it->second.state != Routed::State::kRouting) return;
  Routed& entry = it->second;

  if (r.hops == 0 && spec_.federation.spilling()) {
    const std::uint32_t target = pick_spill_target(p);
    if (target != partitions()) {
      ++stats_.spills;
      count("fed.spills", 1);
      route(r.job.id, entry, target, 1, inst_[p].node);
      return;
    }
  }

  entry.partition = p;
  entry.state = Routed::State::kQueued;
  --routing_count_;
  ++inst_[p].outstanding;
  arm_digest(p);
  inst_[p].policy->submit(r.job);
}

void FederatedScheduler::on_digest(std::uint32_t p, const LoadDigest& digest) {
  if (digest.partition == p) return;  // an instance's own broadcast echoes back
  inst_[p].view_load[digest.partition] = digest.load;
  inst_[p].view_at[digest.partition] = digest.at_tick;
}

void FederatedScheduler::mark_assigned(workflow::JobId id) {
  const auto it = routed_.find(id);
  if (it == routed_.end()) return;
  if (it->second.state == Routed::State::kRouting) --routing_count_;
  it->second.state = Routed::State::kAssigned;
}

void FederatedScheduler::drop_routed(std::map<workflow::JobId, Routed>::iterator it) {
  if (it->second.state == Routed::State::kRouting) {
    --routing_count_;
  } else {
    --inst_[it->second.partition].outstanding;
  }
  routed_.erase(it);
}

void FederatedScheduler::arm_digest(std::uint32_t p) {
  Instance& inst = inst_[p];
  if (inst.digest_armed || digest_interval_ <= 0) return;
  inst.digest_armed = true;
  ctx_.sim->schedule_after(digest_interval_, [this, p] { tick_digest(p); });
}

void FederatedScheduler::tick_digest(std::uint32_t p) {
  Instance& inst = inst_[p];
  inst.digest_armed = false;
  if (inst.down) return;  // re-armed on recovery
  ++stats_.digests;
  count("fed.digests", 1);
  ctx_.broker->publish(digest_topic_, inst.node,
                       LoadDigest{p, own_load(p), ctx_.sim->now()});
  // Keep beating while there is work; a drained instance sends the idle
  // digest above and disarms, so timers never hold the run open.
  if (inst.outstanding > 0) arm_digest(p);
}

void FederatedScheduler::arm_watchdog() {
  if (watchdog_armed_ || routing_count_ == 0) return;
  watchdog_armed_ = true;
  ctx_.sim->schedule_after(staleness_bound_ > 0 ? staleness_bound_ : 1,
                           [this] { tick_watchdog(); });
}

void FederatedScheduler::tick_watchdog() {
  watchdog_armed_ = false;
  const Tick now = ctx_.sim->now();
  // Routes strand when their target crashed around delivery time and then
  // recovered (adoption only covers targets that STAY down past the grace).
  // Resend anything in flight for longer than the staleness bound; the
  // receiver dedupes by state, so a slow-but-alive original is harmless.
  for (auto it = routed_.begin(); it != routed_.end();) {
    Routed& entry = it->second;
    if (entry.state != Routed::State::kRouting || now - entry.sent_at < staleness_bound_) {
      ++it;
      continue;
    }
    const std::uint32_t target = pick_home();
    if (target == partitions()) {
      if (ctx_.notify_unassignable) {
        const workflow::Job job = entry.job;
        drop_routed(it++);
        ctx_.notify_unassignable(job);
        continue;
      }
      ++it;
      continue;
    }
    ++stats_.resends;
    count("fed.resends", 1);
    route(it->first, entry, target, entry.hops, ctx_.master_node);
    ++it;
  }
  if (ctx_.fault_aware) arm_watchdog();
}

void FederatedScheduler::on_completion(const cluster::CompletionReport& report) {
  const auto it = routed_.find(report.job_id);
  if (it != routed_.end()) drop_routed(it);
  inst_[part_of_[report.worker]].policy->on_completion(report);
}

void FederatedScheduler::on_worker_idle(WorkerIndex w) {
  inst_[part_of_[w]].policy->on_worker_idle(w);
}

void FederatedScheduler::on_worker_capacity(WorkerIndex w) {
  inst_[part_of_[w]].policy->on_worker_capacity(w);
}

void FederatedScheduler::on_worker_recovered(WorkerIndex w) {
  inst_[part_of_[w]].policy->on_worker_recovered(w);
}

void FederatedScheduler::on_assignment_void(workflow::JobId id, WorkerIndex w) {
  const auto it = routed_.find(id);
  if (it != routed_.end()) drop_routed(it);
  inst_[part_of_[w]].policy->on_assignment_void(id, w);
}

void FederatedScheduler::on_scheduler_crash(std::uint32_t instance) {
  if (instance >= partitions() || inst_[instance].down) return;
  inst_[instance].down = true;
  ctx_.broker->set_node_down(inst_[instance].node, true);
  // Adoption waits out the grace period (the crashed instance's leases):
  // in-flight completions land, then the successor takes what never made it
  // to a worker.
  ctx_.sim->schedule_after(adoption_grace_, [this, instance] { adopt(instance); });
}

void FederatedScheduler::on_scheduler_recovered(std::uint32_t instance) {
  if (instance >= partitions() || !inst_[instance].down) return;
  inst_[instance].down = false;
  ctx_.broker->set_node_down(inst_[instance].node, false);
  if (inst_[instance].outstanding > 0) arm_digest(instance);
}

void FederatedScheduler::adopt(std::uint32_t crashed) {
  if (!inst_[crashed].down) return;  // recovered inside the grace window
  const std::uint32_t heir = successor_of(crashed);
  for (auto it = routed_.begin(); it != routed_.end();) {
    Routed& entry = it->second;
    if (entry.partition != crashed || entry.state == Routed::State::kAssigned) {
      ++it;  // assigned jobs ride out on their (live) workers
      continue;
    }
    if (heir == partitions()) {
      // No live successor at all: hand the job to the lifecycle rather
      // than strand it (unreachable without faults, which force it on).
      if (ctx_.notify_unassignable) {
        const workflow::Job job = entry.job;
        drop_routed(it++);
        ctx_.notify_unassignable(job);
        continue;
      }
      ++it;
      continue;
    }
    if (entry.state == Routed::State::kQueued) {
      --inst_[crashed].outstanding;
      entry.state = Routed::State::kRouting;
      ++routing_count_;
    }
    ++stats_.adoptions;
    count("fed.adoptions", 1);
    // The crashed policy still holds its copy; if the instance later
    // recovers and assigns it anyway, the engine's completion dedupe (the
    // same machinery that absorbs dup:p message faults) counts it once.
    route(it->first, entry, heir, entry.hops, ctx_.master_node);
    ++it;
  }
  if (ctx_.fault_aware) arm_watchdog();
}

std::size_t FederatedScheduler::pending_jobs() const {
  std::size_t pending = routing_count_;
  for (const Instance& inst : inst_) pending += inst.policy->pending_jobs();
  return pending;
}

void FederatedScheduler::count(const char* name, double delta) const {
  if (ctx_.metrics != nullptr) ctx_.metrics->registry().counter(name).add(delta);
}

}  // namespace dlaja::sched
