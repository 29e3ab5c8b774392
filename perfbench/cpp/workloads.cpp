#include "workloads.hpp"

#include <stdexcept>

#include "cluster/config.hpp"
#include "fault/plan.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace dc = dlaja::core;
namespace dw = dlaja::workload;

namespace {

// Sizes are set so one run of each workload takes a fraction of a second to
// a few seconds of host time on a Release build, so a measured run repeats
// it several times (README.md, "Steadiness").
constexpr std::size_t kFleet10kJobs = 4000;
constexpr std::size_t kBroadcastJobs = 1500;
constexpr double kSaturationDurationS = 15000.0;

dc::ExperimentSpec fleet10k_probe4(std::uint64_t seed) {
  dc::ExperimentSpec spec;
  spec.name = "fleet10k_probe4";
  spec.scheduler = "bidding:fanout=probe:4";
  dw::WorkloadSpec body = dw::make_workload_spec(dw::JobConfig::kAllDiffEqual);
  body.job_count = kFleet10kJobs;
  spec.custom_workload = body;
  spec.fleet = dlaja::cluster::FleetPreset::kAllEqual;
  spec.worker_count = 10000;
  spec.iterations = 1;
  spec.coalesce_deliveries = true;
  spec.seed = seed;
  return spec;
}

// examples/scenarios/open_saturation.json (rho ~= 0.9 at its seed 42), cut
// from 300,000 to kSaturationDurationS simulated seconds. The diurnal swing
// drives the load past 1 as the run nears its end, where queues reach 100+
// jobs per worker (the regime in which backlog estimates cost the most).
// The input is the scenario's own seed, whatever the run seed: the seed
// draws the repository sizes, which set the offered load (mean repository
// size 105 MB at seed 42, 135-216 MB at seeds 1-5), and near saturation
// that decides the queue depth and so the host cost.
dc::ExperimentSpec saturation16_cached4() {
  dc::ExperimentSpec spec;
  spec.name = "saturation16_cached4";
  spec.scheduler = "bidding:fanout=cached:4";
  dw::WorkloadSpec body = dw::make_workload_spec(dw::JobConfig::kAllDiffSmall);
  body.job_count = 1;  // ignored by open arrivals; validate() wants >= 1
  spec.custom_workload = body;
  spec.fleet = dlaja::cluster::FleetPreset::kAllEqual;
  spec.worker_count = 16;
  spec.iterations = 1;
  spec.seed = kDefaultSeed;
  spec.telemetry_interval_s = 60.0;
  spec.telemetry_capacity = 8192;
  dw::OpenArrivalSpec arrivals;
  arrivals.process = dw::OpenArrivalSpec::Process::kMmpp;
  arrivals.rate_per_s = 6.0;
  arrivals.duration_s = kSaturationDurationS;
  arrivals.diurnal_amplitude = 0.3;
  arrivals.diurnal_period_s = 86400.0;
  arrivals.burst_multiplier = 3.0;
  arrivals.burst_dwell_s = 60.0;
  arrivals.calm_dwell_s = 540.0;
  arrivals.repo_pool = 256;
  arrivals.popularity_skew = 2.5;
  spec.open_arrivals = arrivals;
  return spec;
}

dc::ExperimentSpec broadcast256_faults(std::uint64_t seed) {
  dc::ExperimentSpec spec;
  spec.name = "broadcast256_faults";
  spec.scheduler = "bidding";
  dw::WorkloadSpec body = dw::make_workload_spec(dw::JobConfig::k80Small);
  body.job_count = kBroadcastJobs;
  spec.custom_workload = body;
  spec.fleet = dlaja::cluster::FleetPreset::kFastSlow;
  spec.worker_count = 256;
  spec.iterations = 3;
  spec.carry_cache = true;
  spec.seed = seed;
  // Arrivals span ~3000 simulated s per iteration. Random crashes hit ~10% of
  // the fleet inside that span; one degrade window slows the fast worker.
  // max_attempts is high enough that no job is dead-lettered at any seed,
  // so every root job completes and a dead letter means a defect.
  spec.faults = dlaja::fault::FaultPlan::parse(
      "crashes:p=0.1,window=3000,down=300;drop:p=0.01;dup:p=0.005;"
      "degrade:w=0,at=500,for=600,x=0.25");
  spec.lifecycle.max_attempts = 8;
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fleet10k_probe4", "saturation16_cached4",
                                                 "broadcast256_faults"};
  return names;
}

dc::ExperimentSpec make_spec(const std::string& name, std::uint64_t seed) {
  if (name == "fleet10k_probe4") return fleet10k_probe4(seed);
  if (name == "saturation16_cached4") return saturation16_cached4();
  if (name == "broadcast256_faults") return broadcast256_faults(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t root_jobs_per_iteration(const dc::ExperimentSpec& spec) {
  const dw::WorkloadSpec body = spec.custom_workload
                                    ? *spec.custom_workload
                                    : dw::make_workload_spec(spec.job_config);
  if (!spec.open_arrivals) return body.job_count;
  dw::OpenArrivalStream stream(body, *spec.open_arrivals, dlaja::SeedSequencer(spec.seed));
  while (stream.next().has_value()) {
  }
  return stream.emitted();
}

}  // namespace perfbench
