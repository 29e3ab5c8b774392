#include "core/experiment.hpp"

#include <chrono>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dlaja::core {

std::string ExperimentSpec::workload_name() const {
  if (open_arrivals) return "open:" + workload::open_process_name(open_arrivals->process);
  return custom_workload ? custom_workload->name : workload::job_config_name(job_config);
}

std::string ExperimentSpec::fleet_name() const {
  return custom_fleet ? "custom" : cluster::fleet_preset_name(fleet);
}

namespace {

[[nodiscard]] std::unique_ptr<sched::Scheduler> build_scheduler(const ExperimentSpec& spec) {
  if (spec.make_scheduler) return spec.make_scheduler();
  return spec.scheduler.build(spec.seed);
}

[[nodiscard]] std::vector<cluster::WorkerConfig> build_fleet(const ExperimentSpec& spec) {
  if (spec.custom_fleet) return *spec.custom_fleet;
  return cluster::make_fleet(spec.fleet, spec.worker_count);
}

/// Distinct engine seed per iteration so noise draws differ between
/// iterations (the workload itself is generated from the base seed only).
[[nodiscard]] std::uint64_t iteration_seed(std::uint64_t base, int iteration) {
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(iteration + 1));
  return splitmix64(state);
}

}  // namespace

std::vector<metrics::RunReport> run_experiment(const ExperimentSpec& spec,
                                               const IterationObserver& observer) {
  const workload::WorkloadSpec wspec =
      spec.custom_workload ? *spec.custom_workload : workload::make_workload_spec(spec.job_config);
  const SeedSequencer workload_seeds(spec.seed);
  // Open-arrival cells never materialize a trace; each iteration streams a
  // fresh (identical — same substreams) arrival sequence into the engine.
  workload::GeneratedWorkload workload;
  if (!spec.open_arrivals) {
    workload = workload::generate_workload(wspec, workload_seeds);
  }

  std::vector<metrics::RunReport> reports;
  reports.reserve(static_cast<std::size_t>(spec.iterations));
  std::vector<std::vector<storage::Resource>> carried;

  for (int iteration = 0; iteration < spec.iterations; ++iteration) {
    EngineConfig engine_config;
    engine_config.seed = iteration_seed(spec.seed, iteration);
    engine_config.noise = spec.noise;
    engine_config.estimation = spec.estimation;
    engine_config.probe_speeds = spec.probe_speeds;
    engine_config.faults = spec.faults;
    engine_config.lifecycle = spec.lifecycle;
    engine_config.shards = spec.shards;
    if (spec.telemetry_interval_s > 0.0) {
      engine_config.telemetry.interval = ticks_from_seconds(spec.telemetry_interval_s);
      engine_config.telemetry.capacity = spec.telemetry_capacity;
      engine_config.telemetry.watchdog = spec.telemetry_watchdog;
    }

    std::vector<cluster::WorkerConfig> fleet = build_fleet(spec);
    if (spec.flat_control_plane) {
      for (cluster::WorkerConfig& cfg : fleet) cfg.latency_jitter_ms = 0.0;
      engine_config.master_link.latency_jitter_ms = 0.0;
    }

    Engine engine(std::move(fleet), build_scheduler(spec), engine_config);
    if (spec.carry_cache) {
      for (std::size_t w = 0; w < carried.size() && w < engine.worker_count(); ++w) {
        engine.preload_cache(static_cast<cluster::WorkerIndex>(w), carried[w]);
      }
    }

    if (observer.before) observer.before(iteration, engine);
    const auto wall_start = std::chrono::steady_clock::now();
    metrics::RunReport report;
    if (spec.open_arrivals) {
      workload::OpenArrivalStream stream(wspec, *spec.open_arrivals, workload_seeds);
      report = engine.run_stream([&stream] { return stream.next(); });
      report.workload = stream.name();
    } else {
      report = engine.run(workload.jobs);
      report.workload = workload.name;
    }
    report.wall_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    if (observer.after) observer.after(iteration, engine);
    report.worker_config = spec.fleet_name();
    report.iteration = iteration;
    reports.push_back(std::move(report));

    if (spec.carry_cache) carried = engine.cache_snapshots();
  }
  return reports;
}

std::vector<metrics::RunReport> run_matrix(std::span<const ExperimentSpec> specs,
                                           std::size_t threads) {
  // Validate every cell up front: a matrix run is long, and a bad cell
  // should fail before any simulation time is spent.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::vector<ValidationIssue> issues = specs[i].validate();
    if (!issues.empty()) {
      std::string what = "run_matrix: invalid spec #" + std::to_string(i);
      if (!specs[i].name.empty()) what += " (" + specs[i].name + ")";
      for (const ValidationIssue& issue : issues) {
        what += "\n  " + issue.field + ": " + issue.message;
      }
      throw std::invalid_argument(what);
    }
  }
  std::vector<std::vector<metrics::RunReport>> per_cell(specs.size());
  ThreadPool pool(threads);
  // Per-index dispatch: cells are whole simulations with wildly different
  // runtimes, so dynamic one-at-a-time dispatch beats any static carve-up.
  pool.parallel_for(specs.size(),
                    [&](std::size_t i) { per_cell[i] = run_experiment(specs[i]); });
  std::size_t total = 0;
  for (const auto& cell : per_cell) total += cell.size();
  std::vector<metrics::RunReport> all;
  all.reserve(total);
  for (auto& cell : per_cell) {
    for (auto& report : cell) all.push_back(std::move(report));
  }
  return all;
}

}  // namespace dlaja::core
