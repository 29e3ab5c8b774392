// Stress tests: larger-than-paper scales, verifying the invariants hold
// and the simulator stays fast enough for the benches to sweep freely.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"

namespace dlaja {
namespace {

TEST(Stress, FiveThousandJobsOnTwentyFiveWorkers) {
  workload::WorkloadSpec spec = workload::make_workload_spec(workload::JobConfig::k80Small);
  spec.job_count = 5000;
  spec.arrival_mean_s = 0.1;
  const auto workload = workload::generate_workload(spec, SeedSequencer(42));

  core::EngineConfig config;
  config.seed = 42;
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kAllEqual, 25),
                      sched::SchedulerSpec("bidding").build(1), config);
  const auto report = engine.run(workload.jobs);
  EXPECT_EQ(report.jobs_completed, 5000u);
  EXPECT_GT(report.cache_hit_rate, 0.0);
  // Accounting still exact at scale.
  std::uint64_t by_worker = 0;
  for (const auto& w : report.workers) by_worker += w.jobs_completed;
  EXPECT_EQ(by_worker, 5000u);
}

TEST(Stress, BaselineAtScaleStaysLive) {
  workload::WorkloadSpec spec = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  spec.job_count = 2000;
  spec.arrival_mean_s = 0.2;
  const auto workload = workload::generate_workload(spec, SeedSequencer(7));
  core::EngineConfig config;
  config.seed = 7;
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kFastSlow, 10),
                      sched::SchedulerSpec("baseline").build(1), config);
  const auto report = engine.run(workload.jobs);
  EXPECT_EQ(report.jobs_completed, 2000u);
}

TEST(Stress, SharedBandwidthAtScale) {
  workload::WorkloadSpec spec = workload::make_workload_spec(workload::JobConfig::k80Large);
  spec.job_count = 600;
  spec.arrival_mean_s = 0.5;
  const auto workload = workload::generate_workload(spec, SeedSequencer(3));
  core::EngineConfig config;
  config.seed = 3;
  config.shared_bandwidth = true;
  config.origin_capacity_mbps = 150.0;
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kAllEqual, 10),
                      sched::SchedulerSpec("bidding").build(1), config);
  const auto report = engine.run(workload.jobs);
  EXPECT_EQ(report.jobs_completed, 600u);
  EXPECT_NEAR(report.data_load_mb,
              [&] {
                double mb = 0.0;
                for (const auto* job : engine.metrics().jobs_in_arrival_order()) {
                  mb += job->downloaded_mb;
                }
                return mb;
              }(),
              1e-6);
}

TEST(Stress, ManyIterationCarryChainConverges) {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  workload::WorkloadSpec wspec = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  wspec.job_count = 100;
  spec.custom_workload = wspec;
  spec.iterations = 8;
  const auto reports = core::run_experiment(spec);
  ASSERT_EQ(reports.size(), 8u);
  // Iteration 0 is all-cold (100 distinct repositories = 100 misses); once
  // copies accumulate, misses stay near zero. They need not be strictly
  // monotone — a straggled bid occasionally reroutes a job to a non-holder,
  // which is a (deliberate) redundant clone — but they must stay small.
  EXPECT_EQ(reports[0].cache_misses, 100u);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_LE(reports[i].cache_misses, 15u) << "iteration " << i;
  }
  EXPECT_LE(reports.back().cache_misses, 5u);
}

TEST(Stress, WideMatrixParallelDeterminism) {
  // A bigger matrix than the integration test, exercised through the pool
  // twice; identical results both times.
  std::vector<core::ExperimentSpec> specs;
  for (const std::string scheduler : {"bidding", "baseline", "matchmaking"}) {
    for (const auto config : workload::all_job_configs()) {
      core::ExperimentSpec spec;
      spec.scheduler = scheduler;
      workload::WorkloadSpec wspec = workload::make_workload_spec(config);
      wspec.job_count = 25;
      spec.custom_workload = wspec;
      spec.iterations = 2;
      specs.push_back(std::move(spec));
    }
  }
  const auto a = core::run_matrix(specs, 8);
  const auto b = core::run_matrix(specs, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].exec_time_s, b[i].exec_time_s) << i;
    EXPECT_EQ(a[i].cache_misses, b[i].cache_misses) << i;
  }
}

}  // namespace
}  // namespace dlaja
