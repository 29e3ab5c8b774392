#pragma once
// Scheduler interface.
//
// A Scheduler implements one job-allocation protocol end to end: the
// master-side decision logic plus the worker-side message handlers, wired
// together through the broker exactly as the distributed system would be.
// The engine owns the nodes and the clock; the scheduler owns the policy.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/worker.hpp"
#include "metrics/collector.hpp"
#include "msg/broker.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workflow/workflow.hpp"

namespace dlaja::sched {

/// Everything a scheduler may touch, provided by the engine at attach time.
/// Master-side logic must confine itself to information a real master would
/// have (messages it received, assignments it made); worker-side handlers
/// run "at the worker" and may use that worker's local state.
struct SchedulerContext {
  sim::Simulator* sim = nullptr;
  msg::Broker* broker = nullptr;
  net::NetworkModel* network = nullptr;
  metrics::MetricsCollector* metrics = nullptr;
  net::NodeId master_node = net::kInvalidNode;
  std::vector<cluster::WorkerNode*> workers;  ///< index == WorkerIndex
  std::vector<net::NodeId> worker_nodes;      ///< broker node id per worker

  /// The engine's seed sequencer: schedulers that need their own randomness
  /// (e.g. probe fan-out) derive named substreams from it so they never
  /// perturb the engine's other streams. May be null in bare-bones tests;
  /// schedulers must fall back to a fixed seed then.
  const SeedSequencer* seeds = nullptr;

  /// Lifecycle hooks (null unless the engine runs with a job lifecycle —
  /// fault-free runs leave them unset and schedulers behave bit-identically).
  /// notify_assigned: the master committed `job` to `worker` with the given
  /// completion estimate (<= 0 when unknown) — starts the lease clock.
  std::function<void(workflow::JobId, cluster::WorkerIndex, double)> notify_assigned;
  /// notify_unassignable: the scheduler cannot place the job at all (e.g.
  /// every worker is dead) and hands it back for retry/dead-lettering.
  std::function<void(const workflow::Job&)> notify_unassignable;

  /// True when fault injection is active: schedulers may arm watchdogs /
  /// timeouts that would otherwise perturb fault-free determinism.
  bool fault_aware = false;

  /// The engine's fleet epoch: it moves each time a worker crashes or
  /// recovers, right after the worker's failed() flag flips. Schedulers key
  /// their live-worker index on it (sched::LiveWorkers). May be null in
  /// bare-bones tests; the index then rebuilds on every read.
  const std::uint64_t* fleet_epoch = nullptr;

  /// Namespace prefix for broker *topics* ("" outside federation). Topics
  /// are global — two scheduler instances interning the same topic name
  /// would hear each other's broadcasts — so federated instances get a
  /// per-instance prefix. Mailboxes are keyed by (node, name) and never
  /// collide; they stay unscoped.
  std::string scope;

  /// A topic name qualified by this context's scope.
  [[nodiscard]] std::string scoped(const std::string& topic) const {
    return scope.empty() ? topic : scope + topic;
  }

  /// Telemetry probe registry (null when telemetry is off). Schedulers
  /// register read-only gauges/invariants in attach().
  obs::ProbeRegistry* probes = nullptr;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers.size(); }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Stable name used in reports ("bidding", "baseline", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Wires topics/mailboxes. Called exactly once, before any submit().
  virtual void attach(const SchedulerContext& ctx) = 0;

  /// A job arrived at the master (Listing 1, sendJob). The job's metrics
  /// record already has `arrived` set by the engine.
  virtual void submit(const workflow::Job& job) = 0;

  /// A completion report reached the master. Default: ignore.
  virtual void on_completion(const cluster::CompletionReport& report) { (void)report; }

  /// Notification that worker `w` became idle, delivered at the worker
  /// (pull-based schedulers use it to trigger work requests). Default: ignore.
  virtual void on_worker_idle(cluster::WorkerIndex w) { (void)w; }

  /// Notification that worker `w` finished a job (a queue slot freed),
  /// delivered at the worker even when more jobs remain queued. Pull
  /// schedulers with prefetch use it to top their local queue back up.
  /// Default: ignore.
  virtual void on_worker_capacity(cluster::WorkerIndex w) { (void)w; }

  /// Notification that worker `w` recovered from a crash (fault injection).
  /// The engine has already revived the node and re-probed its speeds.
  /// Default: treat it like the initial idle notification, which restarts
  /// pull-based polling; push schedulers need nothing more.
  virtual void on_worker_recovered(cluster::WorkerIndex w) { on_worker_idle(w); }

  /// Notification that a previously committed assignment of `id` to `w` was
  /// voided (lease broken by a crash or message loss); the lifecycle is
  /// retrying or dead-lettering the job. Schedulers drop any per-job state
  /// keyed on the dead attempt. Default: ignore.
  virtual void on_assignment_void(workflow::JobId id, cluster::WorkerIndex w) {
    (void)id;
    (void)w;
  }

  /// Fault injection: scheduler instance `instance` of a federated control
  /// plane crashed (fault-plan `sched_crash` clause). Non-federated
  /// schedulers never see this. Default: ignore.
  virtual void on_scheduler_crash(std::uint32_t instance) { (void)instance; }

  /// Fault injection: scheduler instance `instance` came back. Default:
  /// ignore.
  virtual void on_scheduler_recovered(std::uint32_t instance) { (void)instance; }

  /// Number of jobs the scheduler accepted but has not yet durably handed
  /// to a worker (used by the engine's quiescence diagnostics).
  [[nodiscard]] virtual std::size_t pending_jobs() const { return 0; }

  /// No caller. Kept only because perfbench compiles against it:
  /// perfbench/cpp/layer_probe.hpp overrides it, and perfbench/tests counts
  /// this interface's virtuals.
  [[nodiscard]] virtual bool supports_sharding() const { return false; }
};

}  // namespace dlaja::sched
