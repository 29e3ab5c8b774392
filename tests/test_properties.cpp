// Property-based invariants, swept over (scheduler × workload × fleet) with
// parameterized gtest. These are the conservation laws every allocation
// protocol in the library must satisfy.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/experiment.hpp"
#include "sched/spec.hpp"

namespace dlaja {
namespace {

using Param = std::tuple<std::string, workload::JobConfig, cluster::FleetPreset>;

class SchedulerInvariants : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] static core::ExperimentSpec spec_for(const Param& p) {
    core::ExperimentSpec spec;
    spec.scheduler = std::get<0>(p);
    workload::WorkloadSpec wspec = workload::make_workload_spec(std::get<1>(p));
    wspec.job_count = 40;  // keep the sweep fast but non-trivial
    spec.custom_workload = wspec;
    spec.fleet = std::get<2>(p);
    spec.iterations = 2;
    spec.seed = 1234;
    return spec;
  }
};

TEST_P(SchedulerInvariants, ConservationAndAccounting) {
  const core::ExperimentSpec spec = spec_for(GetParam());
  const workload::GeneratedWorkload workload =
      workload::generate_workload(*spec.custom_workload, SeedSequencer(spec.seed));
  std::set<storage::ResourceId> distinct;
  for (const auto& job : workload.jobs) distinct.insert(job.resource);

  const auto reports = core::run_experiment(spec);
  ASSERT_EQ(reports.size(), 2u);

  for (const metrics::RunReport& r : reports) {
    // Every job completes exactly once (no scheduler loses or duplicates).
    EXPECT_EQ(r.jobs_submitted, 40u);
    EXPECT_EQ(r.jobs_completed, 40u);

    // Worker-level completions sum to the total.
    std::uint64_t by_worker = 0, misses_by_worker = 0;
    double data_by_worker = 0.0;
    for (const auto& w : r.workers) {
      by_worker += w.jobs_completed;
      misses_by_worker += w.cache_misses;
      data_by_worker += w.downloaded_mb;
      // A worker can never be busy longer than the run.
      EXPECT_LE(seconds_from_ticks(w.busy_ticks), r.exec_time_s + 1e-6);
      EXPECT_LE(w.downloading_ticks, w.busy_ticks);
    }
    EXPECT_EQ(by_worker, r.jobs_completed);
    EXPECT_EQ(misses_by_worker, r.cache_misses);
    EXPECT_NEAR(data_by_worker, r.data_load_mb, 1e-6);

    // Positive makespan; turnaround at least as long as service.
    EXPECT_GT(r.exec_time_s, 0.0);
    EXPECT_GT(r.avg_turnaround_s, 0.0);
  }

  // First iteration on cold caches: misses are bounded by the job count and
  // at least the number of distinct resources actually referenced.
  EXPECT_LE(reports[0].cache_misses, 40u);
  EXPECT_GE(reports[0].cache_misses, distinct.size());

  // Data load equals the volume of missed downloads: bounded below by the
  // distinct volume (each distinct repo downloaded somewhere at least once
  // on cold caches) and above by the naive volume.
  EXPECT_GE(reports[0].data_load_mb, workload.unique_mb() - 1e-6);
  EXPECT_LE(reports[0].data_load_mb, workload.naive_mb() + 1e-6);

  // Carry-over helps locality-aware schedulers: the warm iteration never
  // misses more than the cold one. (Locality-blind policies may re-place
  // jobs arbitrarily between iterations, so only the trivial bound holds.)
  const std::string& scheduler = std::get<0>(GetParam());
  const bool locality_aware = scheduler == "bidding" || scheduler == "baseline" ||
                              scheduler == "matchmaking" || scheduler == "delay";
  if (locality_aware) {
    EXPECT_LE(reports[1].cache_misses, reports[0].cache_misses);
  } else {
    EXPECT_LE(reports[1].cache_misses, 40u);
  }
}

TEST_P(SchedulerInvariants, TimelineMonotonicPerJob) {
  const core::ExperimentSpec spec = spec_for(GetParam());
  core::EngineConfig config;
  config.seed = spec.seed;
  config.noise = spec.noise;
  const auto workload =
      workload::generate_workload(*spec.custom_workload, SeedSequencer(spec.seed));
  core::Engine engine(cluster::make_fleet(spec.fleet), spec.scheduler.build(spec.seed),
                      config);
  (void)engine.run(workload.jobs);
  for (const auto* job : engine.metrics().jobs_in_arrival_order()) {
    if (!job->completed()) continue;
    EXPECT_NE(job->arrived, kNeverTick);
    EXPECT_NE(job->assigned, kNeverTick);
    EXPECT_LE(job->arrived, job->assigned);
    EXPECT_LE(job->assigned, job->started);
    EXPECT_LE(job->started, job->finished);
    EXPECT_NE(job->worker, static_cast<std::uint32_t>(-1));
    if (job->cache_miss) {
      EXPECT_GT(job->downloaded_mb, 0.0);
    } else {
      EXPECT_EQ(job->downloaded_mb, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersAllWorkloads, SchedulerInvariants,
    ::testing::Combine(
        ::testing::Values("bidding", "baseline", "spark-like", "matchmaking", "delay",
                          "random", "least-queue"),
        ::testing::Values(workload::JobConfig::kAllDiffEqual, workload::JobConfig::k80Large,
                          workload::JobConfig::k80Small),
        ::testing::Values(cluster::FleetPreset::kAllEqual, cluster::FleetPreset::kFastSlow)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         workload::job_config_name(std::get<1>(param_info.param)) + "_" +
                         cluster::fleet_preset_name(std::get<2>(param_info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- noise-sweep property: estimates degrade gracefully ---------------------

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, BiddingCompletesUnderAnyNoiseLevel) {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  workload::WorkloadSpec wspec = workload::make_workload_spec(workload::JobConfig::k80Large);
  wspec.job_count = 30;
  spec.custom_workload = wspec;
  spec.iterations = 1;
  spec.noise = net::NoiseConfig::lognormal(GetParam());
  const auto reports = core::run_experiment(spec);
  EXPECT_EQ(reports[0].jobs_completed, 30u);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoiseSweep, ::testing::Values(0.0, 0.1, 0.25, 0.5, 1.0),
                         [](const ::testing::TestParamInfo<double>& param_info) {
                           return "sigma_" +
                                  std::to_string(static_cast<int>(param_info.param * 100));
                         });

}  // namespace
}  // namespace dlaja
