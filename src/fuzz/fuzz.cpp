#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cluster/config.hpp"
#include "fault/plan.hpp"
#include "net/noise.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dlaja::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Report fingerprinting (bit-determinism).

void fp_double(std::string& out, double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a|", value);
  out += buffer;
}

void fp_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
  out += '|';
}

/// Everything in a RunReport except wall_time_s (host wall clock — the only
/// field allowed to differ between identical runs), in hexfloat so a 1-ulp
/// drift is a fingerprint mismatch.
[[nodiscard]] std::string fingerprint(const metrics::RunReport& report) {
  std::string out;
  out.reserve(512);
  out += report.scheduler + '|' + report.workload + '|' + report.worker_config + '|';
  fp_u64(out, static_cast<std::uint64_t>(report.iteration));
  fp_u64(out, report.seed);
  fp_double(out, report.exec_time_s);
  fp_u64(out, report.cache_misses);
  fp_double(out, report.data_load_mb);
  fp_u64(out, report.jobs_submitted);
  fp_u64(out, report.jobs_completed);
  fp_u64(out, report.jobs_retried);
  fp_u64(out, report.jobs_dead_lettered);
  fp_u64(out, report.jobs_lost);
  fp_double(out, report.avg_turnaround_s);
  fp_double(out, report.p50_turnaround_s);
  fp_double(out, report.p95_turnaround_s);
  fp_double(out, report.p99_turnaround_s);
  fp_double(out, report.avg_alloc_latency_s);
  fp_double(out, report.avg_queue_wait_s);
  fp_double(out, report.cache_hit_rate);
  fp_double(out, report.fairness_index);
  fp_u64(out, report.messages_delivered);
  for (const metrics::WorkerRecord& worker : report.workers) {
    out += worker.name + '|';
    fp_u64(out, worker.jobs_completed);
    fp_u64(out, worker.cache_misses);
    fp_u64(out, worker.cache_hits);
    fp_double(out, worker.downloaded_mb);
    fp_u64(out, static_cast<std::uint64_t>(worker.busy_ticks));
    fp_u64(out, static_cast<std::uint64_t>(worker.downloading_ticks));
    fp_u64(out, worker.bids_submitted);
    fp_u64(out, worker.bids_won);
    fp_u64(out, worker.offers_declined);
  }
  for (const auto& [name, value] : report.stats) {
    out += name + '=';
    fp_double(out, value);
  }
  return out;
}

[[nodiscard]] std::string fingerprint(const std::vector<metrics::RunReport>& reports) {
  std::string out;
  for (const metrics::RunReport& report : reports) {
    out += fingerprint(report);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Running a spec under the watchdog.

/// The spec as the fuzzer actually runs it: telemetry sampling on (so the
/// conservation / cache-capacity / broker-conservation watchdog invariants
/// are checked at every sampled tick) and the watchdog armed to throw.
[[nodiscard]] core::ExperimentSpec probed(const core::ExperimentSpec& spec) {
  core::ExperimentSpec copy = spec;
  if (copy.telemetry_interval_s <= 0.0) copy.telemetry_interval_s = 2.0;
  copy.telemetry_watchdog = true;
  return copy;
}

/// Extracts the invariant name from the watchdog's throw message
/// ("telemetry watchdog: invariant 'X' violated at tick ...").
[[nodiscard]] std::optional<std::string> watchdog_invariant(const std::string& what) {
  const std::string marker = "invariant '";
  const std::size_t start = what.find(marker);
  if (start == std::string::npos) return std::nullopt;
  const std::size_t name_begin = start + marker.size();
  const std::size_t name_end = what.find('\'', name_begin);
  if (name_end == std::string::npos) return std::nullopt;
  return what.substr(name_begin, name_end - name_begin);
}

/// Effective closed-batch job count of a spec.
[[nodiscard]] std::size_t closed_job_count(const core::ExperimentSpec& spec) {
  if (spec.custom_workload) return spec.custom_workload->job_count;
  return workload::make_workload_spec(spec.job_config).job_count;
}

/// Hidden test hook: with DLAJA_FUZZ_INJECT=conservation in the
/// environment, closed scenarios with >= 24 jobs on >= 2 workers report a
/// phantom lost job. Exists so tests and CI can prove the fuzzer catches a
/// conservation bug and shrinks it (to exactly 24 jobs x 2 workers x 1
/// iteration) without planting a real bug in the engine.
[[nodiscard]] bool injected_conservation_bug(const core::ExperimentSpec& spec) {
  const char* inject = std::getenv("DLAJA_FUZZ_INJECT");
  if (inject == nullptr || std::string(inject) != "conservation") return false;
  return !spec.open_arrivals && closed_job_count(spec) >= 24 && spec.worker_count >= 2;
}

/// Runs the (already probed) spec; a watchdog trip or engine throw becomes
/// a Violation, a clean run fills `reports`.
[[nodiscard]] std::optional<Violation> run_probed(const core::ExperimentSpec& spec,
                                                  std::vector<metrics::RunReport>& reports) {
  try {
    reports = core::run_experiment(spec);
  } catch (const std::exception& error) {
    const std::string what = error.what();
    if (const auto invariant = watchdog_invariant(what)) {
      return Violation{*invariant, what};
    }
    return Violation{"runtime-error", what};
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// random_spec

core::ExperimentSpec random_spec(std::uint64_t seed, std::uint64_t index) {
  RandomStream rng =
      SeedSequencer(seed).stream("fuzz/scenario/" + std::to_string(index));

  core::ExperimentSpec spec;
  spec.name = "fuzz-s" + std::to_string(seed) + "-i" + std::to_string(index);
  spec.worker_count = static_cast<std::size_t>(rng.uniform_int(2, 8));

  constexpr cluster::FleetPreset kFleets[] = {
      cluster::FleetPreset::kAllEqual, cluster::FleetPreset::kOneFast,
      cluster::FleetPreset::kOneSlow, cluster::FleetPreset::kFastSlow};
  spec.fleet = kFleets[rng.uniform_int(0, 3)];

  constexpr const char* kSchedulers[] = {
      "bidding",          "bidding:fanout=probe:2", "bidding:fanout=cached:2",
      "baseline",         "baseline:declines=1",    "spark-like",
      "round-robin",      "least-queue",            "random"};
  spec.scheduler = kSchedulers[rng.uniform_int(0, 8)];
  const bool bidding_family = spec.scheduler.type() == "bidding";

  const std::vector<workload::JobConfig> configs = workload::all_job_configs();
  spec.job_config = configs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(configs.size()) - 1))];
  workload::WorkloadSpec body = workload::make_workload_spec(spec.job_config);
  body.job_count = static_cast<std::size_t>(rng.uniform_int(8, 48));
  spec.custom_workload = body;

  // ~1 in 5 scenarios streams an open arrival process instead of replaying
  // the closed batch (the job bodies above still shape sizes/weights).
  if (rng.bernoulli(0.2)) {
    workload::OpenArrivalSpec arrivals;
    arrivals.process = rng.bernoulli(0.5) ? workload::OpenArrivalSpec::Process::kMmpp
                                          : workload::OpenArrivalSpec::Process::kPoisson;
    arrivals.rate_per_s = rng.uniform(2.0, 8.0);
    arrivals.duration_s = rng.uniform(15.0, 45.0);
    if (rng.bernoulli(0.5)) {
      arrivals.diurnal_amplitude = rng.uniform(0.1, 0.5);
      arrivals.diurnal_period_s = rng.uniform(20.0, 60.0);
    }
    if (arrivals.process == workload::OpenArrivalSpec::Process::kMmpp) {
      arrivals.burst_multiplier = rng.uniform(2.0, 4.0);
      arrivals.burst_dwell_s = rng.uniform(3.0, 8.0);
      arrivals.calm_dwell_s = rng.uniform(8.0, 25.0);
    }
    arrivals.repo_pool = static_cast<std::size_t>(rng.uniform_int(8, 32));
    arrivals.popularity_skew = rng.uniform(1.0, 3.0);
    spec.open_arrivals = arrivals;
  }

  spec.iterations = spec.open_arrivals ? 1 : static_cast<int>(rng.uniform_int(1, 2));
  spec.carry_cache = rng.bernoulli(0.5);
  spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000'000));

  switch (rng.uniform_int(0, 3)) {
    case 0: spec.noise = net::NoiseConfig::none(); break;
    case 1: spec.noise = net::NoiseConfig::uniform(rng.uniform(0.7, 0.9), rng.uniform(1.1, 1.3)); break;
    case 2: spec.noise = net::NoiseConfig::lognormal(rng.uniform(0.1, 0.4)); break;
    default: spec.noise = net::NoiseConfig::throttle(rng.uniform(0.05, 0.2), rng.uniform(0.2, 0.5)); break;
  }
  spec.flat_control_plane = rng.bernoulli(0.35);

  // Fault plans only on the schedulers whose fault handling the suite
  // pins (bidding/baseline/spark-like conserve jobs under the lifecycle).
  const bool fault_capable = bidding_family || spec.scheduler.type() == "baseline" ||
                             spec.scheduler.type() == "spark-like";

  // Federated cells: wrap the drawn policy in 1-4 partitions, sometimes
  // with spill enabled, so partition routing, digests, and the
  // partitions=1 identity (checked below in check_spec) all get fuzzed.
  if (spec.worker_count >= 2 && rng.bernoulli(0.3)) {
    sched::FederationSpec fed;
    // Every partition keeps >= 2 workers so the drawn probe/cached
    // fan-outs (k <= 2) always fit the smallest partition.
    const auto max_parts = static_cast<std::int64_t>(
        std::max<std::size_t>(1, std::min<std::size_t>(4, spec.worker_count / 2)));
    fed.partitions = static_cast<std::uint32_t>(rng.uniform_int(1, max_parts));
    fed.digest_interval_s = static_cast<double>(rng.uniform_int(1, 5));
    if (fed.partitions > 1) {
      if (rng.bernoulli(0.5)) fed.spill_threshold = rng.uniform(1.0, 3.0);
      if (rng.bernoulli(0.3)) {
        fed.successor = static_cast<std::int32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(fed.partitions) - 1));
      }
    }
    spec.scheduler.federation = fed;
  }
  const sched::FederationSpec& fed = spec.scheduler.federation;

  if (fault_capable && rng.bernoulli(0.35)) {
    std::string plan =
        "crash:w=" + std::to_string(rng.uniform_int(0, static_cast<std::int64_t>(spec.worker_count) - 1)) +
        ",at=" + std::to_string(rng.uniform_int(2, 10)) +
        ",down=" + std::to_string(rng.uniform_int(5, 20));
    if (rng.bernoulli(0.5)) {
      switch (rng.uniform_int(0, 3)) {
        case 0: plan += ";crashes:p=0.25,window=20,down=10"; break;
        case 1:
          plan += ";degrade:w=" +
                  std::to_string(rng.uniform_int(0, static_cast<std::int64_t>(spec.worker_count) - 1)) +
                  ",at=3,for=15,x=0.5";
          break;
        case 2: plan += ";drop:p=0.01"; break;
        default: plan += ";dup:p=0.01"; break;
      }
    }
    // Scheduler crashes only exist under federation; draw one against a
    // random instance so adoption + conservation get fuzzed together.
    if (fed.active() && rng.bernoulli(0.5)) {
      plan += ";sched_crash:s=" +
              std::to_string(rng.uniform_int(0, static_cast<std::int64_t>(fed.partitions) - 1)) +
              ",at=" + std::to_string(rng.uniform_int(2, 10)) +
              ",down=" + std::to_string(rng.uniform_int(10, 30));
    }
    spec.faults = fault::FaultPlan::parse(plan);
  }

  spec.telemetry_interval_s = static_cast<double>(rng.uniform_int(1, 4));
  spec.telemetry_watchdog = true;

  const std::vector<core::ValidationIssue> issues = spec.validate();
  if (!issues.empty()) {
    // random_spec promises validity; a rejected sample is a fuzzer bug.
    std::string what = "random_spec produced an invalid spec (" + spec.name + ")";
    for (const core::ValidationIssue& issue : issues) what += "; " + issue.field + ": " + issue.message;
    throw std::logic_error(what);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// check_spec

std::optional<Violation> check_spec(const core::ExperimentSpec& spec,
                                    const CheckOptions& options) {
  {
    const std::vector<core::ValidationIssue> issues = spec.validate();
    if (!issues.empty()) {
      std::string detail;
      for (const core::ValidationIssue& issue : issues) {
        if (!detail.empty()) detail += "; ";
        detail += issue.field + ": " + issue.message;
      }
      return Violation{"spec-invalid", detail};
    }
  }

  const core::ExperimentSpec armed = probed(spec);
  std::vector<metrics::RunReport> reports;
  if (auto violation = run_probed(armed, reports)) return violation;

  // Job conservation at run end: nothing may be in limbo once the engine
  // drains, faults or not (crashed attempts must be retried or
  // dead-lettered, never dropped).
  std::uint64_t lost = 0;
  for (const metrics::RunReport& report : reports) lost += report.jobs_lost;
  if (injected_conservation_bug(spec)) ++lost;
  if (lost > 0) {
    return Violation{"jobs.conservation",
                     "jobs_lost = " + std::to_string(lost) + " at run end (expected 0)"};
  }

  // Closed fault-free runs must complete the whole batch.
  if (!spec.open_arrivals && spec.faults.empty()) {
    const std::uint64_t expected = closed_job_count(spec);
    for (const metrics::RunReport& report : reports) {
      if (report.jobs_completed != expected) {
        return Violation{"jobs.conservation",
                         "iteration " + std::to_string(report.iteration) + " completed " +
                             std::to_string(report.jobs_completed) + "/" +
                             std::to_string(expected) + " jobs with no faults injected"};
      }
    }
  }

  // Bit-determinism: the same spec must reproduce every report field (bar
  // wall clock) exactly on a second run.
  if (options.determinism) {
    std::vector<metrics::RunReport> again;
    if (auto violation = run_probed(armed, again)) {
      violation->invariant = "bit-determinism";
      violation->detail = "second run of the same spec threw: " + violation->detail;
      return violation;
    }
    if (fingerprint(reports) != fingerprint(again)) {
      return Violation{"bit-determinism",
                       "two runs of the same spec produced different report fingerprints"};
    }
  }

  // Federation identity: partitions=1 must be bit-identical to the same
  // spec with no federation configured at all — the guarantee that keeps
  // every pre-federation golden valid (build() constructs the plain policy
  // in both cases; this pins that nothing else diverges either).
  if (spec.scheduler.federation.partitions == 1 &&
      !(spec.scheduler.federation == sched::FederationSpec{})) {
    core::ExperimentSpec alt = armed;
    alt.scheduler.federation = {};
    std::vector<metrics::RunReport> plain;
    if (auto violation = run_probed(alt, plain)) {
      violation->invariant = "federation-identity";
      violation->detail = "federation-free twin threw: " + violation->detail;
      return violation;
    }
    if (fingerprint(reports) != fingerprint(plain)) {
      return Violation{"federation-identity",
                       "partitions=1 and a federation-free spec produced different "
                       "report fingerprints"};
    }
  }

  return std::nullopt;
}

// ---------------------------------------------------------------------------
// shrink

namespace {

using Transform = std::optional<core::ExperimentSpec> (*)(const core::ExperimentSpec&);

std::optional<core::ExperimentSpec> t_one_iteration(const core::ExperimentSpec& s) {
  if (s.iterations <= 1) return std::nullopt;
  core::ExperimentSpec c = s;
  c.iterations = 1;
  return c;
}

std::optional<core::ExperimentSpec> t_drop_explicit_crashes(const core::ExperimentSpec& s) {
  if (s.faults.crashes.empty()) return std::nullopt;
  core::ExperimentSpec c = s;
  c.faults.crashes.clear();
  return c;
}

std::optional<core::ExperimentSpec> t_drop_random_crashes(const core::ExperimentSpec& s) {
  if (s.faults.random_crashes.empty()) return std::nullopt;
  core::ExperimentSpec c = s;
  c.faults.random_crashes.clear();
  return c;
}

std::optional<core::ExperimentSpec> t_drop_sched_crashes(const core::ExperimentSpec& s) {
  if (s.faults.sched_crashes.empty()) return std::nullopt;
  core::ExperimentSpec c = s;
  c.faults.sched_crashes.clear();
  return c;
}

std::optional<core::ExperimentSpec> t_no_federation(const core::ExperimentSpec& s) {
  if (s.scheduler.federation == sched::FederationSpec{}) return std::nullopt;
  core::ExperimentSpec c = s;
  c.scheduler.federation = {};
  c.faults.sched_crashes.clear();  // sched_crash clauses need federation
  return c;
}

std::optional<core::ExperimentSpec> t_drop_degradations(const core::ExperimentSpec& s) {
  if (s.faults.degradations.empty()) return std::nullopt;
  core::ExperimentSpec c = s;
  c.faults.degradations.clear();
  return c;
}

std::optional<core::ExperimentSpec> t_drop_message_faults(const core::ExperimentSpec& s) {
  if (!s.faults.messages.any()) return std::nullopt;
  core::ExperimentSpec c = s;
  c.faults.messages = {};
  return c;
}

std::optional<core::ExperimentSpec> t_halve_jobs(const core::ExperimentSpec& s) {
  if (s.open_arrivals || !s.custom_workload || s.custom_workload->job_count <= 1) {
    return std::nullopt;
  }
  core::ExperimentSpec c = s;
  c.custom_workload->job_count = std::max<std::size_t>(1, s.custom_workload->job_count / 2);
  return c;
}

std::optional<core::ExperimentSpec> t_decrement_jobs(const core::ExperimentSpec& s) {
  if (s.open_arrivals || !s.custom_workload || s.custom_workload->job_count <= 1) {
    return std::nullopt;
  }
  core::ExperimentSpec c = s;
  c.custom_workload->job_count = s.custom_workload->job_count - 1;
  return c;
}

std::optional<core::ExperimentSpec> t_halve_workers(const core::ExperimentSpec& s) {
  if (s.worker_count <= 1) return std::nullopt;
  core::ExperimentSpec c = s;
  c.worker_count = std::max<std::size_t>(1, s.worker_count / 2);
  return c;
}

std::optional<core::ExperimentSpec> t_decrement_workers(const core::ExperimentSpec& s) {
  if (s.worker_count <= 1) return std::nullopt;
  core::ExperimentSpec c = s;
  c.worker_count = s.worker_count - 1;
  return c;
}

std::optional<core::ExperimentSpec> t_no_noise(const core::ExperimentSpec& s) {
  if (s.noise.kind == net::NoiseConfig::Kind::kNone) return std::nullopt;
  core::ExperimentSpec c = s;
  c.noise = net::NoiseConfig::none();
  return c;
}

std::optional<core::ExperimentSpec> t_no_carry(const core::ExperimentSpec& s) {
  if (!s.carry_cache) return std::nullopt;
  core::ExperimentSpec c = s;
  c.carry_cache = false;
  return c;
}

std::optional<core::ExperimentSpec> t_halve_duration(const core::ExperimentSpec& s) {
  if (!s.open_arrivals || s.open_arrivals->duration_s <= 5.0) return std::nullopt;
  core::ExperimentSpec c = s;
  c.open_arrivals->duration_s = std::max(5.0, s.open_arrivals->duration_s / 2.0);
  return c;
}

std::optional<core::ExperimentSpec> t_halve_rate(const core::ExperimentSpec& s) {
  if (!s.open_arrivals || s.open_arrivals->rate_per_s <= 1.0) return std::nullopt;
  core::ExperimentSpec c = s;
  c.open_arrivals->rate_per_s = std::max(1.0, s.open_arrivals->rate_per_s / 2.0);
  return c;
}

std::optional<core::ExperimentSpec> t_plain_poisson(const core::ExperimentSpec& s) {
  if (!s.open_arrivals) return std::nullopt;
  const workload::OpenArrivalSpec& arrivals = *s.open_arrivals;
  if (arrivals.process == workload::OpenArrivalSpec::Process::kPoisson &&
      arrivals.diurnal_amplitude == 0.0) {
    return std::nullopt;
  }
  core::ExperimentSpec c = s;
  c.open_arrivals->process = workload::OpenArrivalSpec::Process::kPoisson;
  c.open_arrivals->diurnal_amplitude = 0.0;
  return c;
}

std::optional<core::ExperimentSpec> t_shrink_pool(const core::ExperimentSpec& s) {
  if (!s.open_arrivals || s.open_arrivals->repo_pool <= 4) return std::nullopt;
  core::ExperimentSpec c = s;
  c.open_arrivals->repo_pool = std::max<std::size_t>(4, s.open_arrivals->repo_pool / 2);
  return c;
}

constexpr Transform kTransforms[] = {
    t_one_iteration,    t_drop_random_crashes, t_drop_explicit_crashes, t_drop_degradations,
    t_drop_message_faults, t_drop_sched_crashes, t_no_federation,       t_halve_jobs,
    t_halve_workers,    t_no_noise,            t_halve_duration,        t_halve_rate,
    t_plain_poisson,    t_shrink_pool,         t_no_carry,              t_decrement_jobs,
    t_decrement_workers,
};

}  // namespace

core::ExperimentSpec shrink(const core::ExperimentSpec& spec, const Violation& violation,
                            const CheckOptions& options, std::size_t max_checks,
                            const std::function<void(const std::string&)>& log) {
  core::ExperimentSpec current = spec;
  std::size_t checks = 0;
  bool progressed = true;
  // Greedy fixpoint: retry the whole transform list after every accepted
  // reduction (an earlier transform may apply again to the smaller spec).
  while (progressed && checks < max_checks) {
    progressed = false;
    for (const Transform transform : kTransforms) {
      if (checks >= max_checks) break;
      const std::optional<core::ExperimentSpec> candidate = transform(current);
      if (!candidate.has_value()) continue;
      if (!candidate->validate().empty()) continue;  // e.g. probe k > shrunk fleet
      ++checks;
      const std::optional<Violation> result = check_spec(*candidate, options);
      if (result.has_value() && result->invariant == violation.invariant) {
        current = *candidate;
        progressed = true;
        if (log) {
          log("shrink: kept reduction (check " + std::to_string(checks) + "), still fails '" +
              violation.invariant + "'");
        }
      }
    }
  }
  return current;
}

// ---------------------------------------------------------------------------
// run_fuzz

namespace {

[[nodiscard]] std::string sanitize(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    out += (std::isalnum(static_cast<unsigned char>(ch)) != 0) ? ch : '_';
  }
  return out;
}

[[nodiscard]] std::string one_line_summary(const core::ExperimentSpec& spec) {
  std::ostringstream out;
  out << spec.scheduler.to_config_string() << " x " << spec.workload_name() << " x "
      << spec.fleet_name() << ":"
      << spec.worker_count;
  if (!spec.faults.empty()) out << " faults[" << spec.faults.describe() << "]";
  if (spec.noise.kind != net::NoiseConfig::Kind::kNone) out << " noise=" << spec.noise.spec();
  return out.str();
}

}  // namespace

FuzzResult run_fuzz(const FuzzConfig& config, std::ostream& out) {
  FuzzResult result;
  for (std::uint64_t index = 0; index < config.count; ++index) {
    const core::ExperimentSpec spec = random_spec(config.seed, index);
    if (config.verbose) {
      out << "  [" << index << "] " << one_line_summary(spec) << "\n" << std::flush;
    } else {
      out << '.' << std::flush;
      if ((index + 1) % 50 == 0) out << ' ' << (index + 1) << '\n';
    }

    const std::optional<Violation> violation = check_spec(spec, config.check);
    ++result.checked;
    if (!violation.has_value()) continue;

    result.failed = true;
    result.failing_index = index;
    result.violation = *violation;
    if (!config.verbose) out << '\n';
    out << "FAIL: scenario " << index << " (seed " << config.seed << ") violated '"
        << violation->invariant << "'\n      " << violation->detail << "\n";
    out << "      " << one_line_summary(spec) << "\n";

    out << "shrinking (up to " << config.max_shrink_checks << " candidate checks)...\n"
        << std::flush;
    const auto log = [&](const std::string& line) {
      if (config.verbose) out << "  " << line << "\n" << std::flush;
    };
    result.minimal = shrink(spec, *violation, config.check, config.max_shrink_checks, log);
    out << "minimal: " << one_line_summary(result.minimal) << "\n";

    if (!config.repro_dir.empty()) {
      const std::string file = "repro_" + sanitize(violation->invariant) + "_s" +
                               std::to_string(config.seed) + "_i" + std::to_string(index) +
                               ".json";
      result.repro_path = config.repro_dir + "/" + file;
      core::ExperimentSpec named = result.minimal;
      named.name = file.substr(0, file.size() - 5);  // strip ".json"
      std::ofstream repro(result.repro_path);
      if (!repro) {
        out << "warning: cannot write " << result.repro_path << "\n";
        result.repro_path.clear();
      } else {
        repro << named.to_json().dump(2) << "\n";
      }
    }

    const char* inject = std::getenv("DLAJA_FUZZ_INJECT");
    std::string prefix;
    if (inject != nullptr) prefix = std::string("DLAJA_FUZZ_INJECT=") + inject + " ";
    result.repro_command =
        prefix + "dlaja_fuzz --check " +
        (result.repro_path.empty() ? std::string("<scenario.json>") : result.repro_path);
    if (!result.repro_path.empty()) {
      out << "repro written: " << result.repro_path << "\n";
    }
    out << "reproduce with: " << result.repro_command << "\n" << std::flush;
    return result;
  }
  if (!config.verbose && config.count % 50 != 0) out << '\n';
  out << "OK: " << result.checked << " scenarios, zero invariant violations\n" << std::flush;
  return result;
}

}  // namespace dlaja::fuzz
