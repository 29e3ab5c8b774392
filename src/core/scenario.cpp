// Declarative scenarios: ExperimentSpec <-> JSON, plus validate(). One
// scenario file is one experiment cell; the CLI's --scenario flag and the
// examples under examples/scenarios/ use exactly this format.

#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/experiment.hpp"

namespace dlaja::core {

namespace {

constexpr const char* kValidKeys =
    "name, scheduler, workload, jobs, fleet, workers, iterations, carry_cache, "
    "seed, noise, estimation, faults, lifecycle, flat_control_plane, telemetry, "
    "arrivals";

[[noreturn]] void key_error(const std::string& key, const std::string& what) {
  throw std::invalid_argument("scenario: key '" + key + "' " + what);
}

const std::string& need_string(const json::Value& value, const std::string& key) {
  if (!value.is_string()) key_error(key, "wants a string");
  return value.as_string();
}

bool need_bool(const json::Value& value, const std::string& key) {
  if (!value.is_bool()) key_error(key, "wants true or false");
  return value.as_bool();
}

double need_number(const json::Value& value, const std::string& key) {
  if (!value.is_number()) key_error(key, "wants a number");
  return value.as_number();
}

std::uint64_t need_count(const json::Value& value, const std::string& key) {
  const double n = need_number(value, key);
  if (n < 0.0 || n != static_cast<double>(static_cast<std::uint64_t>(n))) {
    key_error(key, "wants a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

LifecycleConfig parse_lifecycle(const json::Value& value) {
  if (!value.is_object()) key_error("lifecycle", "wants an object");
  LifecycleConfig lifecycle;
  for (const auto& [key, member] : value.as_object()) {
    if (key == "max_attempts") {
      lifecycle.max_attempts = static_cast<std::uint32_t>(need_count(member, "lifecycle.max_attempts"));
    } else if (key == "lease_factor") {
      lifecycle.lease_factor = need_number(member, "lifecycle.lease_factor");
    } else if (key == "lease_min_s") {
      lifecycle.lease_min_s = need_number(member, "lifecycle.lease_min_s");
    } else if (key == "retry_backoff_s") {
      lifecycle.retry_backoff_s = need_number(member, "lifecycle.retry_backoff_s");
    } else {
      throw std::invalid_argument(
          "scenario: unknown lifecycle key '" + key +
          "' (valid: max_attempts, lease_factor, lease_min_s, retry_backoff_s)");
    }
  }
  return lifecycle;
}

/// Parses the nested "telemetry" object into the spec's flat fields.
void parse_telemetry(const json::Value& value, ExperimentSpec& spec) {
  if (!value.is_object()) key_error("telemetry", "wants an object");
  // The key's presence opts in: an empty object (or one that only tweaks
  // capacity / watchdog) samples at the default cadence. An explicit
  // interval_s overrides it, and interval_s: 0 turns telemetry back off.
  spec.telemetry_interval_s = kTelemetryDefaultIntervalS;
  for (const auto& [key, member] : value.as_object()) {
    if (key == "interval_s") {
      spec.telemetry_interval_s = need_number(member, "telemetry.interval_s");
    } else if (key == "capacity") {
      spec.telemetry_capacity = static_cast<std::size_t>(need_count(member, "telemetry.capacity"));
    } else if (key == "watchdog") {
      spec.telemetry_watchdog = need_bool(member, "telemetry.watchdog");
    } else {
      throw std::invalid_argument("scenario: unknown telemetry key '" + key +
                                  "' (valid: interval_s, capacity, watchdog)");
    }
  }
}

/// Parses the nested "arrivals" object (open-arrival mode).
workload::OpenArrivalSpec parse_arrivals(const json::Value& value) {
  if (!value.is_object()) key_error("arrivals", "wants an object");
  workload::OpenArrivalSpec arrivals;
  for (const auto& [key, member] : value.as_object()) {
    if (key == "process") {
      arrivals.process = workload::open_process_from_name(need_string(member, "arrivals.process"));
    } else if (key == "rate_per_s") {
      arrivals.rate_per_s = need_number(member, "arrivals.rate_per_s");
    } else if (key == "duration_s") {
      arrivals.duration_s = need_number(member, "arrivals.duration_s");
    } else if (key == "max_jobs") {
      arrivals.max_jobs = need_count(member, "arrivals.max_jobs");
    } else if (key == "diurnal_amplitude") {
      arrivals.diurnal_amplitude = need_number(member, "arrivals.diurnal_amplitude");
    } else if (key == "diurnal_period_s") {
      arrivals.diurnal_period_s = need_number(member, "arrivals.diurnal_period_s");
    } else if (key == "burst_multiplier") {
      arrivals.burst_multiplier = need_number(member, "arrivals.burst_multiplier");
    } else if (key == "burst_dwell_s") {
      arrivals.burst_dwell_s = need_number(member, "arrivals.burst_dwell_s");
    } else if (key == "calm_dwell_s") {
      arrivals.calm_dwell_s = need_number(member, "arrivals.calm_dwell_s");
    } else if (key == "repo_pool") {
      arrivals.repo_pool = static_cast<std::size_t>(need_count(member, "arrivals.repo_pool"));
    } else if (key == "popularity_skew") {
      arrivals.popularity_skew = need_number(member, "arrivals.popularity_skew");
    } else {
      throw std::invalid_argument(
          "scenario: unknown arrivals key '" + key +
          "' (valid: process, rate_per_s, duration_s, max_jobs, diurnal_amplitude, "
          "diurnal_period_s, burst_multiplier, burst_dwell_s, calm_dwell_s, repo_pool, "
          "popularity_skew)");
    }
  }
  return arrivals;
}

/// Structured checks mirroring OpenArrivalStream's constructor guards.
void validate_arrivals(const workload::OpenArrivalSpec& arrivals,
                       std::vector<ValidationIssue>& issues) {
  auto positive_finite = [](double x) { return x > 0.0 && std::isfinite(x); };
  if (!positive_finite(arrivals.rate_per_s)) {
    issues.push_back({"arrivals", "rate_per_s must be positive and finite"});
  }
  if (!positive_finite(arrivals.duration_s)) {
    issues.push_back({"arrivals", "duration_s must be positive and finite"});
  }
  if (!(arrivals.diurnal_amplitude >= 0.0) || arrivals.diurnal_amplitude >= 1.0) {
    issues.push_back({"arrivals", "diurnal_amplitude must be in [0, 1)"});
  }
  if (arrivals.diurnal_amplitude > 0.0 && !positive_finite(arrivals.diurnal_period_s)) {
    issues.push_back({"arrivals", "diurnal_period_s must be positive when modulation is on"});
  }
  if (arrivals.process == workload::OpenArrivalSpec::Process::kMmpp) {
    if (!positive_finite(arrivals.burst_multiplier)) {
      issues.push_back({"arrivals", "burst_multiplier must be positive and finite"});
    }
    if (!positive_finite(arrivals.burst_dwell_s) || !positive_finite(arrivals.calm_dwell_s)) {
      issues.push_back({"arrivals", "MMPP dwell times must be positive and finite"});
    }
  }
  if (arrivals.repo_pool == 0) {
    issues.push_back({"arrivals", "repo_pool must be >= 1"});
  }
  if (!positive_finite(arrivals.popularity_skew)) {
    issues.push_back({"arrivals", "popularity_skew must be positive and finite"});
  }
}

}  // namespace

std::vector<ValidationIssue> ExperimentSpec::validate() const {
  std::vector<ValidationIssue> issues;
  const std::size_t fleet_size = custom_fleet ? custom_fleet->size() : worker_count;
  if (fleet_size == 0) {
    issues.push_back({"workers", "the fleet is empty (need at least one worker)"});
  }
  if (iterations <= 0) {
    issues.push_back(
        {"iterations", "need at least one iteration, got " + std::to_string(iterations)});
  }
  const workload::WorkloadSpec wspec =
      custom_workload ? *custom_workload : workload::make_workload_spec(job_config);
  // Open-arrival cells ignore the job count (the stream is bounded by
  // duration/max_jobs instead), but still draw job bodies from the weights.
  if (wspec.job_count == 0 && !open_arrivals) {
    issues.push_back({"jobs", "the workload has zero jobs"});
  }
  // RandomStream::weighted_index requires non-negative weights with a
  // positive sum; reject violations here instead of hitting its
  // precondition (UB) at generation time. NaN fails both comparisons.
  {
    const double weights[3] = {wspec.weight_small, wspec.weight_medium, wspec.weight_large};
    const char* names[3] = {"weight_small", "weight_medium", "weight_large"};
    double weight_sum = 0.0;
    bool weights_usable = true;
    for (std::size_t i = 0; i < 3; ++i) {
      if (!(weights[i] >= 0.0)) {
        issues.push_back({"workload", std::string(names[i]) +
                                          " must be non-negative (size-class weights feed "
                                          "weighted sampling)"});
        weights_usable = false;
      }
      weight_sum += weights[i];
    }
    if (weights_usable && !(weight_sum > 0.0)) {
      issues.push_back({"workload",
                        "size-class weights sum to zero: at least one of weight_small/"
                        "weight_medium/weight_large must be positive"});
    }
  }
  if (wspec.arrival == workload::WorkloadSpec::ArrivalProcess::kBursty &&
      wspec.burst_size == 0) {
    issues.push_back({"workload",
                      "burst_size must be >= 1 for the bursty arrival process (0 would "
                      "silently degenerate to per-job bursts)"});
  }
  if (open_arrivals) validate_arrivals(*open_arrivals, issues);
  if (!make_scheduler) {
    for (sched::SpecIssue& issue : scheduler.validate(fleet_size)) {
      issues.push_back({std::move(issue.field), std::move(issue.message)});
    }
  }
  for (const fault::CrashEvent& crash : faults.crashes) {
    if (crash.worker >= fleet_size) {
      issues.push_back({"faults", "crash clause names worker " + std::to_string(crash.worker) +
                                      " but the fleet has " + std::to_string(fleet_size) +
                                      " workers"});
    }
  }
  if (!faults.sched_crashes.empty() && !make_scheduler &&
      !scheduler.federation.active()) {
    issues.push_back({"faults",
                      "sched_crash clause requires a federated scheduler "
                      "(fed.partitions > 1)"});
  }
  for (const fault::SchedCrashEvent& crash : faults.sched_crashes) {
    if (!make_scheduler && scheduler.federation.active() &&
        crash.instance >= scheduler.federation.partitions) {
      issues.push_back({"faults", "sched_crash clause names instance " +
                                      std::to_string(crash.instance) +
                                      " but the federation has " +
                                      std::to_string(scheduler.federation.partitions) +
                                      " partitions"});
    }
  }
  for (const fault::DegradeWindow& window : faults.degradations) {
    if (window.worker >= fleet_size) {
      issues.push_back({"faults", "degrade clause names worker " + std::to_string(window.worker) +
                                      " but the fleet has " + std::to_string(fleet_size) +
                                      " workers"});
    }
  }
  if (!faults.empty() && lifecycle.max_attempts == 0) {
    issues.push_back({"lifecycle",
                      "max_attempts is 0 under a fault plan: every faulted job would "
                      "dead-letter immediately"});
  }
  if (telemetry_interval_s < 0.0) {
    issues.push_back({"telemetry", "interval_s must be >= 0 (0 disables telemetry)"});
  }
  if (telemetry_interval_s > 0.0 && telemetry_capacity < 2) {
    issues.push_back({"telemetry", "capacity must be >= 2 (ring retention needs room)"});
  }
  if (shards != 1) {
    issues.push_back({"shards", "must be 1 (a run executes on one thread), got " +
                                    std::to_string(shards)});
  }
  return issues;
}

ExperimentSpec ExperimentSpec::from_json(const json::Value& doc) {
  if (!doc.is_object()) throw std::invalid_argument("scenario: document must be a JSON object");
  ExperimentSpec spec;
  std::optional<std::size_t> jobs;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "name") {
      spec.name = need_string(value, key);
    } else if (key == "scheduler") {
      // Accepts both the legacy config string ("bidding:fanout=probe:4")
      // and the structured object form {type, fanout, ..., federation}.
      spec.scheduler = sched::SchedulerSpec::from_json(value);
    } else if (key == "workload") {
      spec.job_config = workload::job_config_from_name(need_string(value, key));
    } else if (key == "jobs") {
      jobs = static_cast<std::size_t>(need_count(value, key));
    } else if (key == "fleet") {
      spec.fleet = cluster::fleet_preset_from_name(need_string(value, key));
    } else if (key == "workers") {
      spec.worker_count = static_cast<std::size_t>(need_count(value, key));
    } else if (key == "iterations") {
      spec.iterations = static_cast<int>(need_count(value, key));
    } else if (key == "carry_cache") {
      spec.carry_cache = need_bool(value, key);
    } else if (key == "seed") {
      spec.seed = need_count(value, key);
    } else if (key == "noise") {
      spec.noise = net::NoiseConfig::parse(need_string(value, key));
    } else if (key == "estimation") {
      const std::string& mode = need_string(value, key);
      if (mode == "historic") {
        spec.estimation = cluster::SpeedEstimator::Mode::kHistoric;
        spec.probe_speeds = true;
      } else if (mode != "nominal") {
        key_error(key, "must be \"nominal\" or \"historic\", got \"" + mode + "\"");
      }
    } else if (key == "faults") {
      spec.faults = fault::FaultPlan::parse(need_string(value, key));
    } else if (key == "lifecycle") {
      spec.lifecycle = parse_lifecycle(value);
    } else if (key == "flat_control_plane") {
      spec.flat_control_plane = need_bool(value, key);
    } else if (key == "telemetry") {
      parse_telemetry(value, spec);
    } else if (key == "arrivals") {
      spec.open_arrivals = parse_arrivals(value);
    } else {
      throw std::invalid_argument("scenario: unknown key '" + key + "' (valid: " +
                                  std::string(kValidKeys) + ")");
    }
  }
  // Mirror the CLI: a preset workload with an optional job-count override
  // is materialized into custom_workload, so runs and reports see one form.
  workload::WorkloadSpec wspec = workload::make_workload_spec(spec.job_config);
  if (jobs) wspec.job_count = *jobs;
  spec.custom_workload = wspec;
  return spec;
}

json::Value ExperimentSpec::to_json() const {
  if (make_scheduler) {
    throw std::invalid_argument(
        "scenario: spec uses a custom make_scheduler and cannot be serialized "
        "(use a scheduler config string)");
  }
  if (custom_fleet) {
    throw std::invalid_argument("scenario: custom fleets cannot be serialized (use a preset)");
  }
  std::size_t jobs = workload::make_workload_spec(job_config).job_count;
  if (custom_workload) {
    workload::WorkloadSpec preset = workload::make_workload_spec(job_config);
    preset.job_count = custom_workload->job_count;
    if (!(*custom_workload == preset)) {
      throw std::invalid_argument(
          "scenario: custom workloads beyond a preset + job count cannot be serialized");
    }
    jobs = custom_workload->job_count;
  }

  json::Object obj;
  if (!name.empty()) obj["name"] = name;
  obj["scheduler"] = scheduler.to_json();
  obj["workload"] = workload::job_config_name(job_config);
  obj["jobs"] = jobs;
  obj["fleet"] = cluster::fleet_preset_name(fleet);
  obj["workers"] = worker_count;
  obj["iterations"] = iterations;
  if (!carry_cache) obj["carry_cache"] = false;
  obj["seed"] = seed;
  obj["noise"] = noise.spec();
  if (estimation == cluster::SpeedEstimator::Mode::kHistoric) obj["estimation"] = "historic";
  if (!faults.empty()) {
    obj["faults"] = faults.spec();
    const LifecycleConfig defaults;
    if (lifecycle.max_attempts != defaults.max_attempts ||
        lifecycle.lease_factor != defaults.lease_factor ||
        lifecycle.lease_min_s != defaults.lease_min_s ||
        lifecycle.retry_backoff_s != defaults.retry_backoff_s) {
      json::Object lc;
      lc["max_attempts"] = static_cast<std::uint64_t>(lifecycle.max_attempts);
      lc["lease_factor"] = lifecycle.lease_factor;
      lc["lease_min_s"] = lifecycle.lease_min_s;
      lc["retry_backoff_s"] = lifecycle.retry_backoff_s;
      obj["lifecycle"] = json::Value{std::move(lc)};
    }
  }
  if (flat_control_plane) obj["flat_control_plane"] = true;
  if (telemetry_interval_s > 0.0) {
    json::Object tel;
    tel["interval_s"] = telemetry_interval_s;
    const ExperimentSpec defaults;
    if (telemetry_capacity != defaults.telemetry_capacity) {
      tel["capacity"] = static_cast<std::uint64_t>(telemetry_capacity);
    }
    if (!telemetry_watchdog) tel["watchdog"] = false;
    obj["telemetry"] = json::Value{std::move(tel)};
  }
  if (open_arrivals) {
    const workload::OpenArrivalSpec& a = *open_arrivals;
    const workload::OpenArrivalSpec defaults;
    json::Object arr;
    arr["process"] = workload::open_process_name(a.process);
    arr["rate_per_s"] = a.rate_per_s;
    arr["duration_s"] = a.duration_s;
    if (a.max_jobs != defaults.max_jobs) arr["max_jobs"] = a.max_jobs;
    if (a.diurnal_amplitude != defaults.diurnal_amplitude) {
      arr["diurnal_amplitude"] = a.diurnal_amplitude;
      arr["diurnal_period_s"] = a.diurnal_period_s;
    }
    if (a.process == workload::OpenArrivalSpec::Process::kMmpp) {
      arr["burst_multiplier"] = a.burst_multiplier;
      arr["burst_dwell_s"] = a.burst_dwell_s;
      arr["calm_dwell_s"] = a.calm_dwell_s;
    }
    if (a.repo_pool != defaults.repo_pool) {
      arr["repo_pool"] = static_cast<std::uint64_t>(a.repo_pool);
    }
    if (a.popularity_skew != defaults.popularity_skew) {
      arr["popularity_skew"] = a.popularity_skew;
    }
    obj["arrivals"] = json::Value{std::move(arr)};
  }
  return json::Value{std::move(obj)};
}

}  // namespace dlaja::core
