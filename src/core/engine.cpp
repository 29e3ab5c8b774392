#include "core/engine.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace dlaja::core {

using cluster::CompletionReport;
using cluster::WorkerIndex;

Engine::Engine(const std::vector<cluster::WorkerConfig>& fleet,
               std::unique_ptr<sched::Scheduler> scheduler, EngineConfig config)
    : config_(config),
      seeds_(config.seed),
      metrics_(fleet.size()),
      scheduler_(std::move(scheduler)),
      expansion_rng_(seeds_.seed_for("expansion")) {
  if (fleet.empty()) throw std::invalid_argument("Engine: empty fleet");
  if (!scheduler_) throw std::invalid_argument("Engine: null scheduler");
  if (config_.shards != 1) {
    throw std::invalid_argument("Engine: shards must be 1 (a run executes on one thread)");
  }

  network_ = std::make_unique<net::NetworkModel>(seeds_, config_.noise);
  master_node_ = network_->register_node("master", config_.master_link);
  broker_ = std::make_unique<msg::Broker>(sim_, *network_);

  workers_.reserve(fleet.size());
  worker_nodes_.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const cluster::WorkerConfig& cfg = fleet[i];
    net::LinkConfig link;
    link.bandwidth_mbps = cfg.network_mbps;
    link.latency_ms = cfg.latency_ms;
    link.latency_jitter_ms = cfg.latency_jitter_ms;
    const net::NodeId node = network_->register_node(cfg.name, link);
    worker_nodes_.push_back(node);
    workers_.push_back(std::make_unique<cluster::WorkerNode>(
        static_cast<WorkerIndex>(i), cfg, sim_, *network_, node, metrics_, seeds_,
        config_.estimation));
  }

  if (config_.shared_bandwidth) {
    flow_network_ = std::make_unique<net::FlowNetwork>(sim_, config_.origin_capacity_mbps);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      flow_network_->set_node_capacity(worker_nodes_[i], fleet[i].network_mbps);
      workers_[i]->set_flow_network(flow_network_.get());
    }
  }

  // Worker callbacks: report completions to the master over the broker;
  // surface idleness to the scheduler (it runs worker-side logic there).
  completions_box_ = broker_->mailbox(cluster::mailboxes::kCompletions);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const auto w = static_cast<WorkerIndex>(i);
    workers_[i]->on_complete = [this, w](const workflow::Job& job, WorkerIndex) {
      broker_->send(worker_nodes_[w], master_node_, completions_box_,
                    CompletionReport{job.id, w});
      scheduler_->on_worker_capacity(w);
    };
    workers_[i]->on_idle = [this](WorkerIndex idle_worker) {
      scheduler_->on_worker_idle(idle_worker);
    };
  }

  // Master-side completion handling.
  broker_->register_mailbox(
      master_node_, cluster::mailboxes::kCompletions, [this](const msg::Message& message) {
        const auto& report = message.payload.as<CompletionReport>();
        const auto it = live_jobs_.find(report.job_id);
        if (it == live_jobs_.end()) return;  // duplicate report
        const workflow::Job job = std::move(it->second);
        live_jobs_.erase(it);
        master_handle_completion(report, job);
      });

  // Fault machinery. Everything here is gated: a fault-free run constructs
  // neither the lifecycle nor the injector, installs no hooks, and draws
  // nothing from the fault substreams — bit-identical to builds before the
  // fault subsystem existed.
  const bool faults_on = !config_.faults.empty();
  if (faults_on) config_.lifecycle.enabled = true;
  if (config_.lifecycle.enabled) {
    JobLifecycle::Callbacks callbacks;
    callbacks.resubmit = [this](workflow::Job job) {
      job.id = 0;  // fresh copy; submit_job assigns the id and re-tracks
      submit_job(std::move(job));
    };
    callbacks.worker_holds = [this](workflow::JobId id, WorkerIndex w) {
      return w < workers_.size() && !workers_[w]->failed() && workers_[w]->has_job(id);
    };
    callbacks.abandon = [this](workflow::JobId id, WorkerIndex w) {
      live_jobs_.erase(id);  // a late completion of this attempt is ignored
      if (w != cluster::kNoWorker) scheduler_->on_assignment_void(id, w);
    };
    lifecycle_ =
        std::make_unique<JobLifecycle>(sim_, metrics_, config_.lifecycle, std::move(callbacks));
  }
  if (faults_on) {
    fault::InjectorHooks hooks;
    hooks.crash = [this](std::uint32_t w) { apply_crash(static_cast<WorkerIndex>(w)); };
    hooks.recover = [this](std::uint32_t w) { apply_recover(static_cast<WorkerIndex>(w)); };
    injector_ = std::make_unique<fault::FaultInjector>(
        sim_, *broker_, *network_, worker_nodes_,
        config_.faults.materialize_crashes(seeds_, workers_.size()),
        config_.faults.degradations, config_.faults.messages, seeds_, std::move(hooks));
    injector_->arm();
    // Scheduler-instance crashes are pure scheduler callbacks (no worker or
    // network state), so plain simulator events suffice here.
    for (const fault::SchedCrashEvent& crash : config_.faults.sched_crashes) {
      const std::uint32_t instance = crash.instance;
      sim_.schedule_at(crash.at, [this, instance] {
        ++sched_crashes_;
        scheduler_->on_scheduler_crash(instance);
      });
      if (crash.down_for > 0) {
        sim_.schedule_at(crash.at + crash.down_for, [this, instance] {
          scheduler_->on_scheduler_recovered(instance);
        });
      }
    }
  }

  sched::SchedulerContext ctx;
  ctx.sim = &sim_;
  ctx.broker = broker_.get();
  ctx.network = network_.get();
  ctx.metrics = &metrics_;
  ctx.master_node = master_node_;
  ctx.seeds = &seeds_;
  for (auto& worker : workers_) ctx.workers.push_back(worker.get());
  ctx.worker_nodes = worker_nodes_;
  if (lifecycle_) {
    ctx.notify_assigned = [this](workflow::JobId id, WorkerIndex w, double estimate_s) {
      lifecycle_->assigned(id, w, estimate_s);
    };
    ctx.notify_unassignable = [this](const workflow::Job& job) {
      lifecycle_->unassignable(job);
    };
  }
  ctx.fault_aware = faults_on || config_.lifecycle.enabled;
  ctx.fleet_epoch = &fleet_epoch_;
  if (telemetry_on()) ctx.probes = &probes_;
  scheduler_->attach(ctx);
  if (telemetry_on()) register_probes();
}

void Engine::set_workflow(std::shared_ptr<const workflow::Workflow> wf) {
  if (ran_) throw std::logic_error("Engine::set_workflow: run() already called");
  if (wf) (void)wf->topological_order();  // rejects cyclic graphs up front
  workflow_ = std::move(wf);
}

void Engine::preload_cache(WorkerIndex w, std::span<const storage::Resource> resources) {
  if (ran_) throw std::logic_error("Engine::preload_cache: run() already called");
  worker(w).cache().restore(resources);
}

std::vector<std::vector<storage::Resource>> Engine::cache_snapshots() const {
  std::vector<std::vector<storage::Resource>> snapshots;
  snapshots.reserve(workers_.size());
  for (const auto& worker : workers_) snapshots.push_back(worker->cache().snapshot());
  return snapshots;
}

cluster::WorkerNode& Engine::worker(WorkerIndex w) {
  if (w >= workers_.size()) throw std::out_of_range("Engine::worker: bad index");
  return *workers_[w];
}

void Engine::fail_worker_at(WorkerIndex w, Tick at) {
  (void)worker(w);  // validates the index up front
  auto crash = [this, w] { apply_crash(w); };
  static_assert(sim::InlineAction::fits_inline<decltype(crash)>());
  sim_.schedule_at(at, std::move(crash));
}

void Engine::apply_crash(WorkerIndex w) {
  cluster::WorkerNode* target = workers_[w].get();
  if (target->failed()) return;  // overlapping schedules: already down
  DLAJA_LOG(kInfo, "engine") << sim_.log_prefix() << "worker " << w << " failed";
  const std::vector<workflow::Job> lost = target->set_failed(true);
  ++fleet_epoch_;  // before the lifecycle call below, which can re-enter the scheduler
  broker_->set_node_down(worker_nodes_[w], true);
  ++crashes_;
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    ensure_trace_names();
    sim_.tracer()->instant(obs::Component::kFault, trace_crash_, w, sim_.now(),
                           lost.size());
  }
  // The lease machinery voids exactly the attempts assigned to this worker
  // — a superset of `lost` (it also covers assignments still in flight to
  // the now-dead node). Without the lifecycle the jobs stay lost.
  if (lifecycle_) lifecycle_->worker_crashed(w);
}

void Engine::apply_recover(WorkerIndex w) {
  cluster::WorkerNode* target = workers_[w].get();
  if (!target->failed()) return;  // never crashed, or recovered already
  DLAJA_LOG(kInfo, "engine") << sim_.log_prefix() << "worker " << w << " recovered";
  (void)target->set_failed(false);  // a live worker holds no lost jobs
  ++fleet_epoch_;  // before probe_speeds() and the scheduler callback below
  broker_->set_node_down(worker_nodes_[w], false);
  ++recoveries_;
  // Rejoin with fresh speed knowledge, mirroring the startup sequence.
  if (config_.probe_speeds) target->probe_speeds();
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    ensure_trace_names();
    sim_.tracer()->instant(obs::Component::kFault, trace_recover_, w, sim_.now());
  }
  // The scheduler re-registers the worker (pull polling restarts, push
  // placement sees it via failed() == false again).
  scheduler_->on_worker_recovered(w);
}

void Engine::submit_job(workflow::Job job) {
  // Ids must be unique across the whole run (metrics records persist after
  // completion), so any id that was ever seen is remapped to a fresh one.
  if (job.id == 0 || metrics_.find_job(job.id) != nullptr) {
    job.id = next_job_id_;
  }
  next_job_id_ = std::max(next_job_id_, job.id) + 1;
  job.created_at = sim_.now();
  live_jobs_.emplace(job.id, job);
  ++submitted_;
  metrics_.job(job.id).arrived = sim_.now();
  // Track before the scheduler sees the job: a synchronous assignment (push
  // schedulers) must find the lifecycle entry when it starts the lease.
  if (lifecycle_) lifecycle_->track(job);
  scheduler_->submit(job);
}

void Engine::ensure_trace_names() {
  if (trace_names_ready_) return;
  trace_names_ready_ = true;
  trace_job_ = sim_.tracer()->intern("job");
  trace_crash_ = sim_.tracer()->intern("crash");
  trace_recover_ = sim_.tracer()->intern("recover");
}

void Engine::master_handle_completion(const CompletionReport& report,
                                      const workflow::Job& job) {
  ++completed_;
  if (lifecycle_) lifecycle_->completed(job.id);
  if (streaming_) {
    const metrics::JobRecord* record = metrics_.find_job(job.id);
    const Tick arrived =
        record != nullptr && record->arrived != kNeverTick ? record->arrived : job.created_at;
    sojourn_hist_->record(seconds_from_ticks(sim_.now() - arrived));
  }
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    ensure_trace_names();
    const metrics::JobRecord& record = metrics_.job(job.id);
    const Tick arrived = record.arrived != kNeverTick ? record.arrived : sim_.now();
    sim_.tracer()->span(obs::Component::kCore, trace_job_, report.worker, arrived,
                        sim_.now(), job.id);
  }
  scheduler_->on_completion(report);
  // Streaming: fold the finished record into the collector's retired
  // aggregates so memory stays O(live jobs).
  if (streaming_) metrics_.retire_job(job.id);

  if (!workflow_ || job.task >= workflow_->task_count()) return;
  const workflow::TaskSpec& spec = workflow_->task(job.task);
  if (!spec.expand) return;
  std::vector<workflow::Job> downstream = spec.expand(job, expansion_rng_);
  for (workflow::Job& next : downstream) {
    if (!workflow_->connected(job.task, next.task)) {
      throw std::logic_error("Engine: expander of task '" + spec.name +
                             "' produced a job for a non-downstream task");
    }
    next.id = 0;  // engine assigns
    submit_job(std::move(next));
  }
}

namespace {

/// Per-worker backlog series are emitted only for small fleets; larger
/// fleets keep the cluster-wide aggregates so a 10k-worker run does not
/// carry 10k telemetry columns.
constexpr std::size_t kPerWorkerSeriesMax = 16;

}  // namespace

void Engine::register_probes() {
  // Every callback is a pure read.
  probes_.add_gauge("master.pending_jobs", 0, [this] {
    return static_cast<double>(scheduler_->pending_jobs());
  });
  probes_.add_gauge("master.live_jobs", 0,
                    [this] { return static_cast<double>(live_jobs_.size()); });
  probes_.add_gauge("master.completed_jobs", 0,
                    [this] { return static_cast<double>(completed_); });

  const bool per_worker = workers_.size() <= kPerWorkerSeriesMax;
  backlog_memos_.assign(workers_.size(), BacklogMemo{});
  // Fleet aggregates: one gauge per series walks the whole fleet in
  // ascending worker order, so registration cost and the per-sample call
  // count stay O(1) instead of O(workers).
  //
  // The backlog estimate is the one non-trivial gauge (it replays the FIFO
  // queue), and each worker's value can feed two series at the same tick —
  // memoize it per sampled tick so each sample walks each queue once.
  probes_.add_gauge("worker.backlog_s", 0, [this] {
    double total = 0.0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      cluster::WorkerNode* node = workers_[i].get();
      BacklogMemo& memo = backlog_memos_[i];
      const Tick now = node->now();
      if (memo.at != now) memo = {now, node->backlog_cost_s()};
      total += memo.value;
    }
    return total;
  });
  probes_.add_gauge("worker.queued", 0, [this] {
    double total = 0.0;
    for (const auto& worker : workers_) total += static_cast<double>(worker->queue_length());
    return total;
  });
  probes_.add_gauge("worker.busy", 0, [this] {
    double total = 0.0;
    for (const auto& worker : workers_) total += static_cast<double>(worker->busy_slots());
    return total;
  });
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    cluster::WorkerNode* node = workers_[i].get();
    if (per_worker) {
      // Two raw pointers keep the closure inside std::function's inline
      // buffer; the memo shares the walk with the aggregate series above.
      BacklogMemo* memo = &backlog_memos_[i];
      probes_.add_gauge("worker." + std::to_string(i) + ".backlog_s", 0, [node, memo] {
        const Tick now = node->now();
        if (memo->at != now) *memo = {now, node->backlog_cost_s()};
        return memo->value;
      });
    }
    if (node->cache().config().policy != storage::EvictionPolicy::kUnbounded) {
      probes_.add_invariant("cache.capacity", 0, [node, i]() -> std::string {
        const storage::ResourceCache& cache = node->cache();
        if (!cache.over_capacity()) return {};
        return "worker " + std::to_string(i) + " cache holds " +
               std::to_string(cache.used_mb()) + " MB in " + std::to_string(cache.size()) +
               " entries > capacity " + std::to_string(cache.config().capacity_mb) + " MB";
      });
    }
  }

  probes_.add_gauge("broker.in_flight", 0,
                    [this] { return static_cast<double>(broker_->in_flight()); });

  if (config_.shared_bandwidth) {
    net::FlowNetwork* flows = flow_network_.get();
    probes_.add_gauge("flow.active", 0,
                      [flows] { return static_cast<double>(flows->active_flows()); });
    probes_.add_gauge("flow.allocated_mbps", 0, [flows] { return flows->allocated_mbps(); });
  }

  if (lifecycle_) {
    probes_.add_gauge("lifecycle.outstanding_leases", 0, [this] {
      return static_cast<double>(lifecycle_->outstanding_leases());
    });
  }

  // Job conservation: every submission is completed, intentionally voided by
  // the lifecycle, or still live. All mutations of these counters happen
  // atomically within event handlers, so the identity holds at every tick,
  // not just at quiescence.
  probes_.add_invariant("jobs.conservation", 0, [this]() -> std::string {
    const std::uint64_t voided = lifecycle_ ? lifecycle_->stats().attempts_voided : 0;
    const std::uint64_t accounted = completed_ + voided + live_jobs_.size();
    if (submitted_ == accounted) return {};
    return "submitted=" + std::to_string(submitted_) +
           " != completed=" + std::to_string(completed_) +
           " + voided=" + std::to_string(voided) +
           " + live=" + std::to_string(live_jobs_.size());
  });

  // Broker conservation: every copy put in flight was delivered, dropped,
  // or is still in flight.
  probes_.add_invariant("broker.conservation", 0, [this]() -> std::string {
    const msg::BrokerStats& stats = broker_->stats();
    const std::uint64_t in_flight = broker_->in_flight();
    if (stats.enqueued == stats.delivered + stats.dropped + in_flight) return {};
    return "enqueued=" + std::to_string(stats.enqueued) +
           " != delivered=" + std::to_string(stats.delivered) +
           " + dropped=" + std::to_string(stats.dropped) +
           " + in_flight=" + std::to_string(in_flight);
  });
}

void Engine::check_watchdog() {
  if (!config_.telemetry.watchdog || !sampler_.violation()) return;
  const obs::InvariantViolation& v = *sampler_.violation();
  std::cerr << "telemetry watchdog: invariant '" << v.probe << "' violated at t="
            << seconds_from_ticks(v.tick) << "s: " << v.message << "\n";
  sampler_.dump_tail(std::cerr);
  throw std::runtime_error("telemetry watchdog: invariant '" + v.probe +
                           "' violated at tick " + std::to_string(v.tick) + ": " + v.message);
}

void Engine::run_sampled() {
  // Slices sim_.run(horizon) at the sampling grid. Simulator::run advances
  // the clock to its target even when no event fires there, so the slicing
  // preserves the exact event order and count — bit-identical to the
  // unsliced run. A grid tick is sampled iff a further event (<= horizon)
  // remains, which yields exactly the canonical tick set of telemetry.hpp.
  const Tick horizon = config_.horizon;
  Tick next_sample = config_.telemetry.interval;
  while (next_sample <= horizon) {
    const Tick next_event = sim_.next_event_at();
    if (next_event == kNeverTick || next_event > horizon) break;
    sim_.run(next_sample);
    sampler_.sample(next_sample);
    check_watchdog();
    next_sample += config_.telemetry.interval;
  }
  sim_.run(horizon);
}

void Engine::finish_telemetry() {
  const Tick interval = config_.telemetry.interval;
  // Canonical end of the series: ceil_grid of the last event that fired,
  // capped at floor_grid(horizon).
  const Tick last = sim_.last_fired_at();
  Tick target = (last + interval - 1) / interval * interval;
  if (config_.horizon != kNeverTick) {
    target = std::min(target, config_.horizon / interval * interval);
  }
  sampler_.finalize(target);
  check_watchdog();  // finalize may have sampled fresh (quiescent) ticks
  telemetry_ = sampler_.table();
}

void Engine::begin_run() {
  if (ran_) throw std::logic_error("Engine::run: already ran");
  ran_ = true;

  if (config_.probe_speeds) {
    for (auto& worker : workers_) worker->probe_speeds();
  }

  // Pull-based schedulers need the initial idle notifications (workers
  // start idle; there is no transition to fire the callback).
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    scheduler_->on_worker_idle(static_cast<WorkerIndex>(i));
  }
}

metrics::RunReport Engine::run(std::span<const workflow::Job> jobs) {
  begin_run();

  // Stream the workload in at its arrival times. Jobs are staged in
  // arrivals_ and each event captures just {this, index}: a Job is far too
  // wide for the simulator's inline action storage, an index is not. Each
  // arrival fires once, so it hands its staged job over.
  arrivals_.assign(jobs.begin(), jobs.end());
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    auto arrive = [this, i] { submit_job(std::move(arrivals_[i])); };
    static_assert(sim::InlineAction::fits_inline<decltype(arrive)>());
    sim_.schedule_at(arrivals_[i].created_at, arrive);
  }

  return finish_run();
}

metrics::RunReport Engine::run_stream(JobSource source) {
  begin_run();
  streaming_ = true;
  stream_source_ = std::move(source);
  if (!stream_source_) throw std::invalid_argument("Engine::run_stream: null source");
  sojourn_hist_ = &metrics_.registry().histogram("job.sojourn_s");

  if (telemetry_on()) {
    // Steady-state gauges (registered before the sampler binds in
    // finish_run). Percentiles read the cumulative log-linear histogram —
    // a pure read, so telemetry stays RNG-free and event-free.
    probes_.add_gauge("job.sojourn_p50_s", 0,
                      [this] { return sojourn_hist_->percentile(50.0); });
    probes_.add_gauge("job.sojourn_p99_s", 0,
                      [this] { return sojourn_hist_->percentile(99.0); });
    probes_.add_gauge("job.sojourn_p999_s", 0,
                      [this] { return sojourn_hist_->percentile(99.9); });
    probes_.add_gauge("master.throughput_jps", 0, [this] {
      const double elapsed = seconds_from_ticks(sim_.now());
      return elapsed > 0.0 ? static_cast<double>(completed_) / elapsed : 0.0;
    });
  }

  schedule_next_arrival();
  return finish_run();
}

void Engine::schedule_next_arrival() {
  std::optional<workflow::Job> next = stream_source_();
  if (!next.has_value()) return;
  staged_arrival_ = std::move(*next);
  // Move the job out before staging the successor: the recursive call
  // overwrites staged_arrival_.
  auto arrive = [this] {
    workflow::Job job = std::move(staged_arrival_);
    schedule_next_arrival();
    submit_job(std::move(job));
  };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>());
  sim_.schedule_at(std::max(staged_arrival_.created_at, sim_.now()), arrive);
}

metrics::RunReport Engine::finish_run() {
  // Bind the telemetry sampler last: tests may have registered extra probes
  // through probes() between construction and run().
  if (telemetry_on()) {
    sampler_.bind(probes_, config_.telemetry);
    run_sampled();
    finish_telemetry();
  } else {
    sim_.run(config_.horizon);
  }

  // Attempts the master never acked split into intentionally voided ones
  // (the lifecycle already retried or dead-lettered them) and genuinely
  // stuck ones. Only the latter count as lost — that is the number the
  // fault-smoke CI gate pins at zero.
  std::uint64_t lost = submitted_ - completed_;
  if (lifecycle_) {
    const std::uint64_t voided = lifecycle_->stats().attempts_voided;
    lost = lost >= voided ? lost - voided : 0;
  }
  if (lost > 0) {
    DLAJA_LOG(kWarn, "engine") << sim_.log_prefix() << "run ended with " << lost
                               << " incomplete jobs (failed workers or horizon)";
  }

  // Fold the kernel and messaging counters into the registry so they land in
  // the flattened per-run stats (and the CSV's trailing columns).
  metrics::Registry& registry = metrics_.registry();
  registry.counter("sim.events_fired").add(static_cast<double>(sim_.fired()));
  registry.counter("sim.events_scheduled").add(static_cast<double>(sim_.scheduled()));
  registry.counter("sim.events_cancelled").add(static_cast<double>(sim_.cancelled()));
  const msg::BrokerStats& broker_stats = broker_->stats();
  registry.counter("msg.published").add(static_cast<double>(broker_stats.published));
  registry.counter("msg.sent").add(static_cast<double>(broker_stats.sent));
  registry.counter("msg.delivered").add(static_cast<double>(broker_stats.delivered));
  registry.counter("msg.dropped").add(static_cast<double>(broker_stats.dropped));

  // fault.* counters exist only when the fault machinery was on, so
  // fault-free CSVs keep their exact pre-fault column set.
  if (injector_ || lifecycle_) {
    registry.counter("fault.crashes").add(static_cast<double>(crashes_));
    registry.counter("fault.recoveries").add(static_cast<double>(recoveries_));
    registry.counter("fault.msg_dropped").add(static_cast<double>(broker_stats.fault_dropped));
    registry.counter("fault.msg_duplicated")
        .add(static_cast<double>(broker_stats.fault_duplicated));
    // Gated on the plan having sched_crash clauses so pre-federation fault
    // CSVs keep their exact column set.
    if (!config_.faults.sched_crashes.empty()) {
      registry.counter("fault.sched_crashes").add(static_cast<double>(sched_crashes_));
    }
  }
  if (lifecycle_) {
    const JobLifecycle::Stats& ls = lifecycle_->stats();
    registry.counter("fault.retries").add(static_cast<double>(ls.retries));
    registry.counter("fault.dead_letters").add(static_cast<double>(ls.dead_letters));
    registry.counter("fault.attempts_voided").add(static_cast<double>(ls.attempts_voided));
    registry.counter("fault.leases_broken").add(static_cast<double>(ls.leases_broken));
    registry.counter("fault.leases_rearmed").add(static_cast<double>(ls.leases_rearmed));
  }

  metrics::RunReport report = metrics::make_report(metrics_, metrics_.last_completion());
  report.scheduler = scheduler_->name();
  report.seed = config_.seed;
  report.messages_delivered = broker_->stats().delivered;
  report.jobs_retried = jobs_retried();
  report.jobs_dead_lettered = jobs_dead_lettered();
  report.jobs_lost = lost;
  return report;
}

}  // namespace dlaja::core
