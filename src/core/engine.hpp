#pragma once
// The Engine wires one simulated cluster together: simulator, network,
// broker, master, workers, a scheduler, and the metrics collector — the
// paper's 7-instance deployment (5 workers + master + messaging) in one
// deterministic object. One Engine executes exactly one run.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/worker.hpp"
#include "core/lifecycle.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/collector.hpp"
#include "metrics/report.hpp"
#include "msg/broker.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "workflow/workflow.hpp"

namespace dlaja::core {

struct EngineConfig {
  /// Master seed; all substreams (noise, latency jitter, bid straggles,
  /// expansion randomness) derive from it.
  std::uint64_t seed = 42;

  /// Noise scheme applied to effective bandwidth / rw speed (§6.3.1). The
  /// default mimics real-world throttling: mild jitter with occasional
  /// deep throttles.
  net::NoiseConfig noise = net::NoiseConfig::throttle(0.10, 0.30);

  /// Speed knowledge used in bids: nominal (§6.3) or historic (§6.4).
  cluster::SpeedEstimator::Mode estimation = cluster::SpeedEstimator::Mode::kNominal;

  /// §6.4: probe each worker's speeds on a 100 MB repository up front.
  bool probe_speeds = false;

  /// Control-plane link of the master node.
  net::LinkConfig master_link{};

  /// Shared-bandwidth mode: bulk downloads contend max-min fairly for the
  /// per-node capacities and the origin's upload capacity (the repository
  /// host). Off by default — the paper's cost model gives each transfer
  /// the node's full bandwidth.
  bool shared_bandwidth = false;
  MbPerSec origin_capacity_mbps = 500.0;

  /// Deterministic fault injection. An empty plan (the default) injects
  /// nothing and leaves the run bit-identical to a fault-free build.
  /// A non-empty plan auto-enables the job lifecycle below.
  fault::FaultPlan faults;

  /// Job lifecycle (leases, bounded retries, dead-lettering) — the one
  /// recovery path (paper §5 future work: "redistributing the remaining jobs
  /// if a worker becomes unavailable"). Disabled by default; can be enabled
  /// without a fault plan (e.g. with manual fail_worker_at schedules).
  LifecycleConfig lifecycle;

  /// Same-tick delivery coalescing in the broker: consecutive deliveries to
  /// one node on the same tick share a kernel event. Off by default — it
  /// changes the run's kernel event counts (part of the CSV stats columns),
  /// so only scale runs that opt in get it.
  bool coalesce_deliveries = false;

  /// Safety horizon: the run aborts (with whatever completed) after this
  /// much simulated time. Generous default: one simulated week.
  Tick horizon = ticks_from_seconds(7.0 * 24.0 * 3600.0);

  /// In-run telemetry (gauge sampling + invariant watchdog). interval == 0
  /// (the default) disables the subsystem completely: no probes, no sampler,
  /// the historical run loop, bit-identical output. With a nonzero interval
  /// the engine samples read-only gauges at that simulated-tick cadence —
  /// still bit-identical to the same run with telemetry off, because
  /// sampling fires no events and draws no RNG.
  obs::TelemetryConfig telemetry;

  /// Kept only because perfbench (perfbench/cpp/harness.cpp) copies
  /// ExperimentSpec::shards into it. A run is one thread; any value other
  /// than 1 makes the Engine constructor throw std::invalid_argument.
  std::size_t shards = 1;
};

class Engine {
 public:
  /// Builds the cluster. The scheduler is attached immediately; workers are
  /// registered with the network/broker in fleet order (index = WorkerIndex).
  Engine(const std::vector<cluster::WorkerConfig>& fleet,
         std::unique_ptr<sched::Scheduler> scheduler, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs a workflow graph; completed jobs are expanded through their
  /// task's Expander into downstream jobs. Without a workflow, jobs are
  /// terminal. Must be called before run().
  void set_workflow(std::shared_ptr<const workflow::Workflow> wf);

  /// Pre-populates worker `w`'s cache (iteration carry-over). Before run().
  void preload_cache(cluster::WorkerIndex w, std::span<const storage::Resource> resources);

  /// Snapshots all worker caches (to carry into the next iteration).
  [[nodiscard]] std::vector<std::vector<storage::Resource>> cache_snapshots() const;

  /// Schedules worker `w` to die at simulated time `at` (fault injection).
  void fail_worker_at(cluster::WorkerIndex w, Tick at);

  /// Schedules worker `w` to come back at simulated time `at`: the node
  /// rejoins the broker, re-probes its speeds (when the run probes speeds),
  /// and the scheduler is told via on_worker_recovered().
  void recover_worker_at(cluster::WorkerIndex w, Tick at);

  /// Executes the workload to quiescence (or the horizon) and returns the
  /// run report. `jobs` arrive at their `created_at` times. Callable once.
  metrics::RunReport run(std::span<const workflow::Job> jobs);

  /// Lazy job producer for open-arrival runs: returns the next job (with
  /// `created_at` non-decreasing) or nullopt when the stream ends.
  using JobSource = std::function<std::optional<workflow::Job>()>;

  /// Streaming counterpart of run(): pulls jobs from `source` one at a
  /// time — only a single staged arrival is ever held, so a run can push
  /// millions of arrivals without materializing the trace. Records
  /// per-completion sojourn times into the "job.sojourn_s" histogram and
  /// retires completed job records as it goes, keeping memory O(live
  /// jobs). With telemetry on it adds job.sojourn_p50/p99/p999_s and
  /// master.throughput_jps gauges for steady-state analysis.
  /// Callable once; mutually exclusive with run().
  metrics::RunReport run_stream(JobSource source);

  // --- accessors (tests, benches) ---------------------------------------
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] msg::Broker& broker() noexcept { return *broker_; }
  [[nodiscard]] net::NetworkModel& network() noexcept { return *network_; }
  [[nodiscard]] metrics::MetricsCollector& metrics() noexcept { return metrics_; }
  [[nodiscard]] sched::Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] cluster::WorkerNode& worker(cluster::WorkerIndex w);
  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }
  [[nodiscard]] std::uint64_t jobs_submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t jobs_completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t jobs_retried() const noexcept {
    return lifecycle_ ? lifecycle_->stats().retries : 0;
  }
  [[nodiscard]] std::uint64_t jobs_dead_lettered() const noexcept {
    return lifecycle_ ? lifecycle_->stats().dead_letters : 0;
  }
  [[nodiscard]] std::uint64_t worker_crashes() const noexcept { return crashes_; }
  [[nodiscard]] std::uint64_t worker_recoveries() const noexcept { return recoveries_; }
  [[nodiscard]] std::uint64_t scheduler_crashes() const noexcept { return sched_crashes_; }
  /// Null when the lifecycle is disabled (fault-free runs).
  [[nodiscard]] const JobLifecycle* lifecycle() const noexcept { return lifecycle_.get(); }

  /// Telemetry probe registry. Tests may register extra gauges/invariants
  /// between construction and run(); empty when telemetry is off.
  [[nodiscard]] obs::ProbeRegistry& probes() noexcept { return probes_; }

  /// Telemetry series, populated by run() when telemetry is on
  /// (nullopt otherwise, and before run()).
  [[nodiscard]] const std::optional<obs::TelemetryTable>& telemetry() const noexcept {
    return telemetry_;
  }

 private:
  void master_handle_completion(const cluster::CompletionReport& report,
                                const workflow::Job& job);
  void submit_job(workflow::Job job);

  /// Takes worker `w` down now: drains it, detaches its node and (with the
  /// lifecycle on) voids its leases so the jobs are retried elsewhere.
  void apply_crash(cluster::WorkerIndex w);

  /// Brings worker `w` back now (inverse of apply_crash).
  void apply_recover(cluster::WorkerIndex w);

  /// Interns the engine's span names on first traced use.
  void ensure_trace_names();

  [[nodiscard]] bool telemetry_on() const noexcept { return config_.telemetry.interval > 0; }

  /// Registers the engine-owned gauges and invariants (called after the
  /// scheduler attached, so scheduler probes come first in no particular
  /// order — series are sorted by name in the table anyway).
  void register_probes();

  /// Throws std::runtime_error for the sampler's watchdog violation, after
  /// dumping its series tail to stderr.
  void check_watchdog();

  /// Run loop with telemetry: slices sim_.run(horizon) at the sampling
  /// grid. Produces exactly the canonical tick set.
  void run_sampled();

  /// Shared run() / run_stream() prologue: the once-only guard, speed
  /// probing and the initial idle notifications.
  void begin_run();

  /// Shared epilogue: binds the sampler, executes the run loop, finalizes
  /// telemetry and derives the report.
  metrics::RunReport finish_run();

  /// Streaming arrivals: pulls one job from stream_source_, stages it in
  /// staged_arrival_ and schedules its submission (the event captures only
  /// {this}); each arrival event stages its successor, so exactly one
  /// future arrival is pending at any time.
  void schedule_next_arrival();

  /// Finalizes the sampler to the canonical end tick and builds telemetry_.
  void finish_telemetry();

  EngineConfig config_;
  SeedSequencer seeds_;
  sim::Simulator sim_;
  std::unique_ptr<net::NetworkModel> network_;
  std::unique_ptr<net::FlowNetwork> flow_network_;  ///< only in shared mode
  std::unique_ptr<msg::Broker> broker_;
  metrics::MetricsCollector metrics_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::vector<std::unique_ptr<cluster::WorkerNode>> workers_;
  std::vector<net::NodeId> worker_nodes_;
  net::NodeId master_node_ = net::kInvalidNode;
  std::shared_ptr<const workflow::Workflow> workflow_;
  /// Jobs submitted but not yet completed, recoverable by id.
  std::unordered_map<workflow::JobId, workflow::Job> live_jobs_;
  /// The input workload, staged by run() so each arrival event captures only
  /// {this, index} — inside the simulator's inline action budget — instead
  /// of a full Job copy.
  std::vector<workflow::Job> arrivals_;
  /// Open-arrival state (run_stream only). staged_arrival_ holds the one
  /// job whose arrival event is pending; sojourn_hist_ points at the
  /// registry's "job.sojourn_s" histogram for per-completion recording.
  JobSource stream_source_;
  workflow::Job staged_arrival_;
  metrics::Histogram* sojourn_hist_ = nullptr;
  bool streaming_ = false;
  RandomStream expansion_rng_;
  workflow::JobId next_job_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
  /// Moves on every crash and recovery; schedulers read it through
  /// SchedulerContext::fleet_epoch to know when their live-worker index is
  /// stale.
  std::uint64_t fleet_epoch_ = 0;
  std::uint64_t sched_crashes_ = 0;
  /// Both null in fault-free runs: nothing is constructed, armed or drawn.
  std::unique_ptr<JobLifecycle> lifecycle_;
  std::unique_ptr<fault::FaultInjector> injector_;
  msg::MailboxId completions_box_ = 0;
  /// Telemetry state; empty and unbound when config_.telemetry.interval == 0.
  obs::ProbeRegistry probes_;
  obs::TelemetrySampler sampler_;
  std::optional<obs::TelemetryTable> telemetry_;
  /// Per-worker backlog memo shared by the aggregate and per-worker backlog
  /// gauges: one FIFO-queue replay per worker per sampled tick (sampler-local
  /// state the simulation never observes; see register_probes). Sized to the
  /// fleet before any gauge captures a slot, never resized after.
  struct BacklogMemo {
    Tick at = kNeverTick;
    double value = 0.0;
  };
  std::vector<BacklogMemo> backlog_memos_;
  bool ran_ = false;
  std::uint16_t trace_job_ = 0;      ///< "job": arrival -> completion span
  std::uint16_t trace_crash_ = 0;    ///< "crash" instants (fault component)
  std::uint16_t trace_recover_ = 0;  ///< "recover" instants (fault component)
  bool trace_names_ready_ = false;
};

}  // namespace dlaja::core
