#pragma once
// Experiment orchestration: the §6.3 methodology as a library.
//
// One *experiment cell* is (scheduler × job config × fleet preset) run for
// `iterations` consecutive iterations of the same workload, with worker
// caches carried across iterations — the paper runs all combinations "in
// three iterations each" precisely so that later iterations exercise
// locality against files saved by earlier ones. Cells are independent and
// deterministic, so a matrix of cells fans out across a thread pool.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "core/engine.hpp"
#include "metrics/report.hpp"
#include "sched/spec.hpp"
#include "util/json.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace dlaja::core {

/// Default telemetry sampling cadence (simulated seconds) used when a run
/// opts into telemetry without naming an interval. 30 s keeps the sampling
/// cost within noise on the BM_EngineTelemetry cell of bench_micro_kernel
/// (its Arg(0) and Arg(30) arms) while a multi-hour streaming run still
/// retains hundreds of samples within the default ring capacity.
inline constexpr double kTelemetryDefaultIntervalS = 30.0;

/// One structured problem found by ExperimentSpec::validate().
struct ValidationIssue {
  std::string field;    ///< spec field at fault ("worker_count", "scheduler", ...)
  std::string message;  ///< what is wrong and what would be valid
};

struct ExperimentSpec {
  /// Optional scenario name (reports/logs; "" = anonymous).
  std::string name;

  /// The scheduler, as one structured spec (sched/spec.hpp). Config strings
  /// still assign directly ("bidding:fanout=probe:4" — implicit parse
  /// sugar); scenarios may use the string or the object JSON form; the
  /// federated control plane configures through `scheduler.federation`.
  /// Ignored when `make_scheduler` is set.
  sched::SchedulerSpec scheduler = {};

  /// Deprecated escape hatch: a custom scheduler constructor. Prefer
  /// config-string specs (they validate, serialize to scenarios, and name
  /// themselves in reports); kept for tests and ablations that need a
  /// hand-built scheduler object.
  std::function<std::unique_ptr<sched::Scheduler>()> make_scheduler;

  /// Workload: one of the §6.3.1 presets, or a fully custom spec.
  workload::JobConfig job_config = workload::JobConfig::kAllDiffEqual;
  std::optional<workload::WorkloadSpec> custom_workload;

  /// Open-arrival mode (scenario key "arrivals"): when set, each iteration
  /// streams jobs lazily from this arrival process via Engine::run_stream
  /// instead of replaying the closed batch — the workload's job count is
  /// ignored, its size-class weights/ranges/fixed cost still shape the job
  /// bodies. See workload/arrivals.hpp.
  std::optional<workload::OpenArrivalSpec> open_arrivals;

  /// Worker fleet: preset + count, or a fully custom fleet.
  cluster::FleetPreset fleet = cluster::FleetPreset::kAllEqual;
  std::size_t worker_count = 5;
  std::optional<std::vector<cluster::WorkerConfig>> custom_fleet;

  /// Iterations with cache carry-over (paper: 3).
  int iterations = 3;
  bool carry_cache = true;

  /// Base seed. The workload derives from it directly (identical across
  /// iterations); engine substreams additionally mix in the iteration.
  std::uint64_t seed = 42;

  /// Engine knobs.
  net::NoiseConfig noise = net::NoiseConfig::throttle(0.10, 0.30);
  cluster::SpeedEstimator::Mode estimation = cluster::SpeedEstimator::Mode::kNominal;
  bool probe_speeds = false;

  /// Fault injection (empty = none; non-empty enables the job lifecycle).
  /// The same plan applies to every iteration — the per-iteration seed
  /// varies the materialized crash times and message draws.
  fault::FaultPlan faults;
  LifecycleConfig lifecycle;

  /// Same-tick delivery coalescing in the broker (scale runs only; changes
  /// the kernel event counts in the CSV stats columns, so off by default).
  bool coalesce_deliveries = false;

  /// Kept only because perfbench (perfbench/cpp/harness.cpp) reads it. A run
  /// is one thread: validate() reports any value other than 1, and the
  /// Engine rejects one.
  std::size_t shards = 1;

  /// In-run telemetry (scenario key "telemetry"): gauge-sampling cadence in
  /// seconds (0 = off), retained samples per series, and whether the online
  /// invariant watchdog fails the run on a violation. Sampling is read-only
  /// and RNG-free, so reports are unchanged by turning it on. Requesting
  /// telemetry without naming a cadence (an empty "telemetry" object, or
  /// --telemetry-csv alone) samples at kTelemetryDefaultIntervalS.
  double telemetry_interval_s = 0.0;
  std::size_t telemetry_capacity = 4096;
  bool telemetry_watchdog = true;

  /// Zeroes all latency jitter (fleet links and the master link). Combined
  /// with noise "none" the run depends on no per-message random draw.
  bool flat_control_plane = false;

  /// Resolved names for reports.
  [[nodiscard]] std::string workload_name() const;
  [[nodiscard]] std::string fleet_name() const;

  /// Checks the spec for problems a run would only surface as a crash or a
  /// silently wrong cell: zero workers/iterations/jobs, a scheduler spec
  /// SchedulerSpec::validate rejects (including a probe k larger than the
  /// fleet), fault clauses naming workers outside the fleet, a zero-attempt
  /// lifecycle under faults. Empty result = valid. run_matrix and the CLI
  /// call this; run_experiment itself stays unchecked (tests exercise edge
  /// cells).
  [[nodiscard]] std::vector<ValidationIssue> validate() const;

  /// Declarative scenario form. from_json accepts an object with the keys
  /// written by to_json (unknown keys are errors listing the valid set);
  /// to_json emits only what differs from a default-constructed spec, plus
  /// the identity fields, so files stay small and diffable. Specs using
  /// `make_scheduler` or a custom fleet/workload beyond a preset + job
  /// count are not expressible; to_json throws std::invalid_argument.
  [[nodiscard]] static ExperimentSpec from_json(const json::Value& doc);
  [[nodiscard]] json::Value to_json() const;
};

/// Hooks into each iteration's engine, outside the wall-time window.
/// `before` sees the built engine (carried caches preloaded) just before it
/// runs, `after` sees it once the run returned; either may be empty. A
/// tracer attached in `before`, or the metrics and telemetry read in
/// `after`, therefore describe the very run whose report is returned.
struct IterationObserver {
  std::function<void(int iteration, Engine& engine)> before;
  std::function<void(int iteration, Engine& engine)> after;
};

/// Runs one cell: `iterations` sequential runs of the same workload, caches
/// carried over when `carry_cache`. Returns one report per iteration. This
/// is the one place an ExperimentSpec becomes an EngineConfig.
[[nodiscard]] std::vector<metrics::RunReport> run_experiment(
    const ExperimentSpec& spec, const IterationObserver& observer = {});

/// Runs many cells concurrently (each cell stays internally sequential).
/// Results are concatenated in cell order regardless of completion order.
/// `threads` = 0 uses hardware concurrency.
[[nodiscard]] std::vector<metrics::RunReport> run_matrix(std::span<const ExperimentSpec> specs,
                                                         std::size_t threads = 0);

}  // namespace dlaja::core
