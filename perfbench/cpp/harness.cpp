#include "harness.hpp"

#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "cluster/config.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "derive.hpp"
#include "layer_probe.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dc = dlaja::core;
namespace dm = dlaja::metrics;
namespace dw = dlaja::workload;
namespace json = dlaja::json;

namespace {

using Clock = std::chrono::steady_clock;
using CacheSet = std::vector<std::vector<dlaja::storage::Resource>>;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fewest measured runs a mode makes, however long each one takes.
constexpr int kMinRuns = 3;
/// Untimed runs before measuring: the first runs of a process are slower
/// (page faults, cold allocator), whichever workload runs.
constexpr double kWarmupS = 1.0;
/// After each measured run, repeated set-ups take this share of its host
/// time. The samples spread over the whole measured window, so the fastest
/// one (setup_s) comes from the fastest host phase the window caught (host
/// speed drifts in phases of seconds to minutes).
constexpr double kSetupShare = 0.1;
constexpr int kMaxSetupsPerRun = 200;

struct Workload {
  std::string name;
  dc::ExperimentSpec spec;
  dw::WorkloadSpec body;
  std::uint64_t root_per_iteration = 0;
  bool fault_free = true;
};

[[nodiscard]] Workload prepare(const Options& options) {
  Workload w;
  w.name = options.workload;
  w.spec = make_spec(options.workload, options.seed);
  if (options.customize) options.customize(w.spec);
  w.body = w.spec.custom_workload ? *w.spec.custom_workload
                                  : dw::make_workload_spec(w.spec.job_config);
  w.root_per_iteration = root_jobs_per_iteration(w.spec);
  w.fault_free = w.spec.faults.empty();
  return w;
}

[[nodiscard]] json::Value to_json_array(const std::vector<double>& values) {
  json::Array array;
  array.reserve(values.size());
  for (const double v : values) array.emplace_back(v);
  return array;
}

/// Output checks of every run in a process: derive.hpp's checks, and
/// bit-identical reports against the process's first run.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) {}

  /// Checks `run`; the first run checked becomes the reference.
  void check(const Reports& run, const std::string& what) {
    ++runs_;
    std::vector<std::string> found = output_problems(run, w_.root_per_iteration, w_.fault_free);
    std::string diff;
    if (reference_.empty()) {
      reference_ = run;
    } else if (!runs_equal(reference_, run, &diff)) {
      found.push_back("reports differ from the reference run (" + diff + ")");
    }
    for (std::string& p : found) problems_.push_back(what + ": " + std::move(p));
    if (!found.empty()) ++failed_runs_;
  }

  /// Records run `what` as failed because it threw `error`.
  void fail(const std::string& what, const std::string& error) {
    ++runs_;
    ++failed_runs_;
    problems_.push_back(what + ": threw: " + error);
  }

  [[nodiscard]] const Reports& reference() const noexcept { return reference_; }
  [[nodiscard]] bool ok() const noexcept { return problems_.empty(); }
  [[nodiscard]] int runs() const noexcept { return runs_; }
  [[nodiscard]] int failed_runs() const noexcept { return failed_runs_; }

  [[nodiscard]] json::Value problems_json() const {
    json::Array array;
    for (const std::string& p : problems_) array.emplace_back(p);
    return array;
  }

 private:
  const Workload& w_;
  Reports reference_;
  std::vector<std::string> problems_;
  int runs_ = 0;
  int failed_runs_ = 0;
};

/// Runs `body`, one run of the workload named `what`. An exception from the
/// simulation (an engine logic error, a telemetry watchdog trip) fails that
/// run instead of ending the process without a result. Returns false when
/// it threw; the caller then stops measuring.
template <typename Body>
bool guarded(Checker& checker, const std::string& what, Body&& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    checker.fail(what, e.what());
    return false;
  }
}

/// The EngineConfig run_experiment derives from a spec for one iteration
/// (core/experiment.cpp). run_experiment does not expose its set-up, so the
/// set-up timing rebuilds it; SetupProbe::mirror() proves the rebuild
/// yields the engines run_experiment runs.
[[nodiscard]] dc::EngineConfig engine_config(const dc::ExperimentSpec& spec,
                                             std::uint64_t iteration_seed) {
  if (spec.flat_control_plane || spec.custom_fleet) {
    throw std::logic_error("set-up timing does not support this spec");
  }
  dc::EngineConfig config;
  config.seed = iteration_seed;
  config.noise = spec.noise;
  config.estimation = spec.estimation;
  config.probe_speeds = spec.probe_speeds;
  config.faults = spec.faults;
  config.lifecycle = spec.lifecycle;
  config.coalesce_deliveries = spec.coalesce_deliveries;
  config.shards = spec.shards;
  if (spec.telemetry_interval_s > 0.0) {
    config.telemetry.interval = dlaja::ticks_from_seconds(spec.telemetry_interval_s);
    config.telemetry.capacity = spec.telemetry_capacity;
    config.telemetry.watchdog = spec.telemetry_watchdog;
  }
  return config;
}

/// Times the set-up of a run: building the trace (or each iteration's
/// arrival stream), the fleet, the Engine with its scheduler attached, and
/// the cache preload, summed over iterations.
class SetupProbe {
 public:
  struct Times {
    double total_s = 0.0;
    double workload_s = 0.0;  ///< trace generation / stream construction
    double engine_s = 0.0;    ///< Engine construction alone
  };

  /// `reference` is a run_experiment run of the workload; it gives the
  /// engine seed of each iteration.
  SetupProbe(const Workload& w, const Reports& reference) : w_(w), seeds_(w.spec.seed) {
    for (const dm::RunReport& r : reference) iteration_seeds_.push_back(r.seed);
    carried_.resize(iteration_seeds_.size());
  }

  /// Runs every iteration on the engines build() makes, carrying caches
  /// as run_experiment does, and returns the reports. Reports equal to
  /// run_experiment's prove that the timed set-up builds the engines
  /// run_experiment runs. Also recovers the caches each iteration starts
  /// with, which once() preloads; call it before once().
  [[nodiscard]] Reports mirror() {
    std::optional<dw::GeneratedWorkload> trace;
    if (!w_.spec.open_arrivals) trace = dw::generate_workload(w_.body, seeds_);
    Reports reports;
    for (std::size_t it = 0; it < iteration_seeds_.size(); ++it) {
      Times unused;
      const Iteration built = build(it, unused);
      dm::RunReport report;
      if (trace) {
        report = built.engine->run(trace->jobs);
        report.workload = trace->name;
      } else {
        dw::OpenArrivalStream& stream = *built.stream;
        report = built.engine->run_stream([&stream] { return stream.next(); });
        report.workload = stream.name();
      }
      report.worker_config = w_.spec.fleet_name();
      report.iteration = static_cast<int>(it);
      reports.push_back(std::move(report));
      if (w_.spec.carry_cache && it + 1 < carried_.size()) {
        carried_[it + 1] = built.engine->cache_snapshots();
      }
    }
    return reports;
  }

  [[nodiscard]] Times once() const {
    Times times;
    if (!w_.spec.open_arrivals) {
      const Clock::time_point start = Clock::now();
      const dw::GeneratedWorkload trace = dw::generate_workload(w_.body, seeds_);
      times.workload_s = times.total_s = seconds_since(start);
    }
    for (std::size_t it = 0; it < iteration_seeds_.size(); ++it) (void)build(it, times);
    return times;
  }

 private:
  struct Iteration {
    std::unique_ptr<dw::OpenArrivalStream> stream;  ///< open workloads only
    std::unique_ptr<dc::Engine> engine;
  };

  /// Builds iteration `it` the way run_experiment does and adds the time of
  /// each part to `times`. Destruction is left to the caller, untimed.
  [[nodiscard]] Iteration build(std::size_t it, Times& times) const {
    Iteration built;
    const Clock::time_point start = Clock::now();
    if (w_.spec.open_arrivals) {
      built.stream = std::make_unique<dw::OpenArrivalStream>(w_.body, *w_.spec.open_arrivals,
                                                             seeds_);
    }
    const Clock::time_point built_stream = Clock::now();
    std::vector<dlaja::cluster::WorkerConfig> fleet =
        dlaja::cluster::make_fleet(w_.spec.fleet, w_.spec.worker_count);
    std::unique_ptr<dlaja::sched::Scheduler> scheduler =
        w_.spec.make_scheduler ? w_.spec.make_scheduler() : w_.spec.scheduler.build(w_.spec.seed);
    const Clock::time_point built_parts = Clock::now();
    built.engine = std::make_unique<dc::Engine>(std::move(fleet), std::move(scheduler),
                                                engine_config(w_.spec, iteration_seeds_[it]));
    const Clock::time_point built_engine = Clock::now();
    const CacheSet& caches = carried_[it];
    for (std::size_t w = 0; w < caches.size() && w < built.engine->worker_count(); ++w) {
      built.engine->preload_cache(static_cast<dlaja::cluster::WorkerIndex>(w), caches[w]);
    }
    const Clock::time_point done = Clock::now();
    times.workload_s += std::chrono::duration<double>(built_stream - start).count();
    times.engine_s += std::chrono::duration<double>(built_engine - built_parts).count();
    times.total_s += std::chrono::duration<double>(done - start).count();
    return built;
  }

  const Workload& w_;
  const dlaja::SeedSequencer seeds_;
  std::vector<std::uint64_t> iteration_seeds_;
  std::vector<CacheSet> carried_;  ///< caches iteration i starts with
};

/// Builds the set-up probe and checks its mirror run like any other run.
/// Returns nothing when the mirror threw.
[[nodiscard]] std::optional<SetupProbe> make_setup_probe(const Workload& w, Checker& checker) {
  std::optional<SetupProbe> probe;
  const bool ok = guarded(checker, "set-up mirror run", [&] {
    probe.emplace(w, checker.reference());
    checker.check(probe->mirror(), "set-up mirror run");
  });
  if (!ok) probe.reset();
  return probe;
}

/// Runs repeated set-ups for about kSetupShare x `run_s`, at least one.
void time_setups(const SetupProbe& probe, double run_s, std::vector<SetupProbe::Times>& out) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kMaxSetupsPerRun; ++i) {
    out.push_back(probe.once());
    if (seconds_since(start) >= kSetupShare * run_s) break;
  }
}

[[nodiscard]] json::Value spec_json(const Workload& w) {
  json::Object spec;
  spec["scheduler"] = w.spec.scheduler.to_config_string();
  spec["fleet"] = w.spec.fleet_name();
  spec["workers"] = static_cast<std::uint64_t>(w.spec.worker_count);
  spec["iterations"] = w.spec.iterations;
  spec["root_jobs_per_iteration"] = w.root_per_iteration;
  spec["faults"] = w.spec.faults.spec();
  if (w.spec.open_arrivals) {
    spec["arrival_rate_per_s"] = w.spec.open_arrivals->rate_per_s;
    spec["arrival_duration_s"] = w.spec.open_arrivals->duration_s;
  }
  spec["shards"] = static_cast<std::uint64_t>(w.spec.shards);
  return spec;
}

/// The simulated figures of the process's reference run. Root jobs come
/// from the spec, so a run that threw before reporting still counts them.
[[nodiscard]] json::Value summary_json(const Workload& w, const Checker& checker) {
  const RunSummary s = summarize(checker.reference(), w.root_per_iteration);
  json::Object out;
  out["root_jobs"] = w.root_per_iteration * static_cast<std::uint64_t>(w.spec.iterations);
  out["dead_lettered"] = s.dead_lettered;
  out["lost"] = s.lost;
  out["sim_makespan_s"] = s.makespan_s;
  out["sim_data_load_mb"] = s.data_load_mb;
  out["sim_cache_misses"] = s.cache_misses;
  out["sim_turnaround_p50_s"] = s.turnaround_p50_s;
  out["sim_turnaround_p99_s"] = s.turnaround_p99_s;
  out["turnaround_jobs"] = s.turnaround_jobs;
  out["jobs_completed_frac"] = jobs_completed_frac(s, checker.ok());
  return out;
}

/// The fields every mode's output has.
[[nodiscard]] json::Object result(const Options& options, const Workload& w,
                                  const Checker& checker) {
  json::Object out;
  out["mode"] = options.mode;
  out["workload"] = w.name;
  out["seed"] = options.seed;
  out["sim_seed"] = w.spec.seed;
  out["build"] = build_info();
  out["spec"] = spec_json(w);
  out["problems"] = checker.problems_json();
  out["runs"] = checker.runs();
  out["failed_runs"] = checker.failed_runs();
  out["summary"] = summary_json(w, checker);
  return out;
}

/// Runs `spec` through run_experiment and checks it; false when it threw.
bool checked_run(const dc::ExperimentSpec& spec, Checker& checker, const std::string& what,
                 Reports* out = nullptr) {
  return guarded(checker, what, [&] {
    Reports run = dc::run_experiment(spec);
    checker.check(run, what);
    if (out != nullptr) *out = std::move(run);
  });
}

/// Runs the workload untimed for kWarmupS (at least once); the first run
/// becomes the checker's reference. False when a run threw.
bool warm_up(const Workload& w, Checker& checker) {
  const Clock::time_point start = Clock::now();
  int runs = 0;
  do {
    if (!checked_run(w.spec, checker, "warm-up run " + std::to_string(runs++))) return false;
  } while (seconds_since(start) < kWarmupS);
  return true;
}

json::Value run_e2e(const Options& options) {
  const Workload w = prepare(options);
  Checker checker(w);
  std::vector<double> run_s;
  std::vector<double> jobs_per_s_runs;
  std::vector<SetupProbe::Times> setups;
  const std::optional<SetupProbe> probe =
      warm_up(w, checker) ? make_setup_probe(w, checker) : std::nullopt;
  if (probe) {
    const Clock::time_point start = Clock::now();
    do {
      const int failed_before = checker.failed_runs();
      Reports run;
      if (!checked_run(w.spec, checker, "measured run " + std::to_string(run_s.size()), &run)) {
        break;
      }
      const RunSummary summary = summarize(run, w.root_per_iteration);
      run_s.push_back(summary.run_s);
      jobs_per_s_runs.push_back(jobs_per_s(summary, checker.failed_runs() == failed_before));
      time_setups(*probe, summary.run_s, setups);
    } while (seconds_since(start) < options.seconds || static_cast<int>(run_s.size()) < kMinRuns);
  }

  std::vector<double> setup_s;
  for (const SetupProbe::Times& t : setups) setup_s.push_back(t.total_s);

  json::Object out = result(options, w, checker);
  out["run_s"] = to_json_array(run_s);
  out["jobs_per_s"] = to_json_array(jobs_per_s_runs);
  out["setup_s"] = to_json_array(setup_s);
  return out;
}

/// Peak resident set of this process in MiB: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss is not used because Linux carries the parent's
/// high-water mark across fork and exec, so it would report the launching
/// Python process whenever that was larger.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("peak resident set unavailable (no VmHWM in /proc/self/status)");
}

json::Value run_rss(const Options& options) {
  const Workload w = prepare(options);
  Checker checker(w);
  (void)checked_run(w.spec, checker, "run");
  json::Object out = result(options, w, checker);
  out["peak_rss_mb"] = peak_rss_mb();
  return out;
}

/// Host ns per job the workload layer spends producing jobs: the median of
/// three full drains of an identical arrival stream for open workloads, the
/// fastest trace generation (as for setup_s) per job for closed ones.
[[nodiscard]] double workload_next_ns(const Workload& w,
                                      const std::vector<SetupProbe::Times>& setups) {
  if (!w.spec.open_arrivals) {
    std::vector<double> per_job;
    for (const SetupProbe::Times& t : setups) {
      per_job.push_back(t.workload_s * 1e9 / static_cast<double>(w.root_per_iteration));
    }
    return minimum(per_job);
  }
  std::vector<double> per_job;
  for (int rep = 0; rep < 3; ++rep) {
    dw::OpenArrivalStream stream(w.body, *w.spec.open_arrivals, dlaja::SeedSequencer(w.spec.seed));
    const Clock::time_point start = Clock::now();
    std::uint64_t count = 0;
    while (stream.next().has_value()) ++count;
    per_job.push_back(seconds_since(start) * 1e9 / static_cast<double>(count));
  }
  return median(per_job);
}

json::Value run_traced(const Options& options) {
  const Workload w = prepare(options);
  Checker checker(w);
  const std::optional<SetupProbe> probe =
      warm_up(w, checker) ? make_setup_probe(w, checker) : std::nullopt;

  LayerSamples samples;
  dc::ExperimentSpec traced = w.spec;
  // ExperimentSpec::make_scheduler is marked deprecated in favour of
  // SchedulerSpec; it is the one hook that puts a wrapper around the
  // scheduler run_experiment would build, so the traced run still goes
  // through run_experiment.
  traced.make_scheduler = [&w, &samples] {
    return std::make_unique<TimedScheduler>(w.spec.scheduler.build(w.spec.seed), samples);
  };

  const Reports& reference = checker.reference();
  const double root_jobs = static_cast<double>(w.root_per_iteration) * w.spec.iterations;
  const double events = stat_sum(reference, "sim.events_fired");

  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<double> submit_share;
  std::vector<double> callback_share;
  std::vector<double> residual_ns_per_event;
  std::vector<SetupProbe::Times> setups;
  std::uint64_t telemetry_samples = 0;
  const Clock::time_point start = Clock::now();
  while (probe && (seconds_since(start) < options.seconds ||
                   static_cast<int>(traced_s.size()) < kMinRuns)) {
    const double submit_before = samples.submit_total_ns;
    const double callback_before = samples.callback_total_ns;
    const double wrapped_before = samples.wrapped_ns();
    const std::uint64_t telemetry_before = samples.telemetry_samples;
    Reports traced_run;
    if (!checked_run(traced, checker, "traced run " + std::to_string(traced_s.size()),
                     &traced_run)) {
      break;
    }
    const double t_s = summarize(traced_run, w.root_per_iteration).run_s;
    const double t_ns = t_s * 1e9;
    traced_s.push_back(t_s);
    submit_share.push_back((samples.submit_total_ns - submit_before) / t_ns);
    callback_share.push_back((samples.callback_total_ns - callback_before) / t_ns);
    residual_ns_per_event.push_back(
        ratio(t_ns - (samples.wrapped_ns() - wrapped_before), events));
    telemetry_samples = samples.telemetry_samples - telemetry_before;

    Reports untraced_run;
    if (!checked_run(w.spec, checker, "untraced run " + std::to_string(untraced_s.size()),
                     &untraced_run)) {
      break;
    }
    untraced_s.push_back(summarize(untraced_run, w.root_per_iteration).run_s);
    time_setups(*probe, t_s, setups);
  }

  std::vector<double> setup_workload_s;
  std::vector<double> setup_engine_s;
  for (const SetupProbe::Times& t : setups) {
    setup_workload_s.push_back(t.workload_s);
    setup_engine_s.push_back(t.engine_s);
  }
  std::vector<double> host_ns_per_event;
  for (const double s : untraced_s) host_ns_per_event.push_back(ratio(s * 1e9, events));

  const double placements = stat_sum(reference, "fanout.placements");
  const double stale = stat_sum(reference, "fanout.stale_declines");
  const double delivered = stat_sum(reference, "msg.delivered");
  double retried = 0.0;
  double dead = 0.0;
  double attempts = 0.0;
  for (const dm::RunReport& r : reference) {
    retried += static_cast<double>(r.jobs_retried);
    dead += static_cast<double>(r.jobs_dead_lettered);
    attempts += static_cast<double>(r.jobs_submitted);
  }

  json::Object layers;
  layers["sched.submit_ns_p50"] = quantile(samples.submit_ns, 0.50);
  layers["sched.submit_ns_p99"] = quantile(samples.submit_ns, 0.99);
  layers["sched.submit_share"] = median(submit_share);
  layers["sched.callback_ns"] =
      ratio(samples.callback_total_ns, static_cast<double>(samples.callbacks));
  layers["sched.callback_share"] = median(callback_share);
  layers["cluster.estimate_ns_p50"] = quantile(samples.estimate_ns, 0.50);
  layers["cluster.estimate_ns_p99"] = quantile(samples.estimate_ns, 0.99);
  layers["workload.next_ns"] = workload_next_ns(w, setups);
  layers["workload.setup_s"] = minimum(setup_workload_s);
  layers["core.setup_engine_s"] = minimum(setup_engine_s);
  layers["sim.host_ns_per_event"] = median(host_ns_per_event);
  layers["sim.residual_ns_per_event"] = median(residual_ns_per_event);
  layers["sim.events_per_job"] = events / root_jobs;
  layers["sim.cancelled_per_job"] = stat_sum(reference, "sim.events_cancelled") / root_jobs;
  layers["msg.delivered_per_job"] = delivered / root_jobs;
  layers["msg.batched_share"] = ratio(stat_sum(reference, "msg.batched"), delivered);
  layers["sched.contests"] = stat_sum(reference, "sched.contests");
  layers["sched.bids_per_contest"] = histogram_mean(reference, "sched.contest_bids");
  layers["sched.contest_s_mean"] = histogram_mean(reference, "sched.contest_s");
  layers["sched.alloc_latency_mean_s"] =
      iteration_mean(reference, &dm::RunReport::avg_alloc_latency_s);
  layers["sched.fanout_accept_ratio"] = ratio(placements - stale, placements);
  layers["sched.fanout_stale_declines"] = stale;
  layers["sched.bid_rel_error_p50"] = quantile(samples.bid_rel_error, 0.50);
  layers["sched.bid_rel_error_p99"] = quantile(samples.bid_rel_error, 0.99);
  layers["cluster.queue_wait_mean_s"] =
      iteration_mean(reference, &dm::RunReport::avg_queue_wait_s);
  layers["cluster.fairness_index"] = iteration_mean(reference, &dm::RunReport::fairness_index);
  layers["storage.hit_rate"] = pooled_hit_rate(reference);
  layers["net.transfer_mb_mean"] = histogram_mean(reference, "net.transfer_mb");
  layers["net.transfer_s_mean"] = histogram_mean(reference, "net.transfer_s");
  layers["fault.crashes"] = stat_sum(reference, "fault.crashes");
  layers["fault.retries_per_job"] = retried / root_jobs;
  layers["fault.attempts_voided"] = stat_sum(reference, "fault.attempts_voided");
  layers["fault.dead_letters"] = dead;
  layers["fault.msg_dropped"] = stat_sum(reference, "fault.msg_dropped");
  layers["fault.msg_duplicated"] = stat_sum(reference, "fault.msg_duplicated");
  layers["core.attempts_per_job"] = attempts / root_jobs;
  layers["obs.telemetry_samples"] = telemetry_samples;
  layers["bench.trace_overhead"] = ratio(median(traced_s), median(untraced_s));

  json::Object out = result(options, w, checker);
  out["traced_run_s"] = to_json_array(traced_s);
  out["untraced_run_s"] = to_json_array(untraced_s);
  out["estimate_samples"] = static_cast<std::uint64_t>(samples.estimate_ns.size());
  out["layers"] = std::move(layers);
  return out;
}

}  // namespace

json::Value build_info() {
  json::Object info;
  info["build_type"] = PERFBENCH_BUILD_TYPE;
  info["compiler"] = PERFBENCH_COMPILER;
#ifdef __OPTIMIZE__
  info["optimized"] = true;
#else
  info["optimized"] = false;
#endif
  return info;
}

json::Value run_mode(const Options& options) {
  if (options.mode == "e2e") return run_e2e(options);
  if (options.mode == "rss") return run_rss(options);
  if (options.mode == "traced") return run_traced(options);
  throw std::invalid_argument("unknown mode '" + options.mode + "' (e2e | rss | traced)");
}

}  // namespace perfbench
