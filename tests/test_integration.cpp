// Cross-module integration tests: the paper's qualitative claims, end to
// end, on the full stack (workload -> broker -> scheduler -> workers ->
// metrics).

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "workload/trace_io.hpp"
#include "msr/msr.hpp"
#include "sched/baseline.hpp"
#include "sched/bidding.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"

namespace dlaja {
namespace {

using testutil::uniform_fleet;

/// Runs (scheduler × one workload config) for 3 carried iterations and
/// averages the three paper metrics.
struct Averages {
  double exec_s = 0.0;
  double misses = 0.0;
  double data_mb = 0.0;
};

Averages run_cell(const std::string& scheduler, workload::JobConfig config,
                  cluster::FleetPreset fleet, std::size_t jobs = 60,
                  std::uint64_t seed = 42) {
  core::ExperimentSpec spec;
  spec.scheduler = scheduler;
  workload::WorkloadSpec wspec = workload::make_workload_spec(config);
  wspec.job_count = jobs;
  spec.custom_workload = wspec;
  spec.fleet = fleet;
  spec.seed = seed;
  Averages avg;
  const auto reports = core::run_experiment(spec);
  for (const auto& r : reports) {
    avg.exec_s += r.exec_time_s / static_cast<double>(reports.size());
    avg.misses += static_cast<double>(r.cache_misses) / static_cast<double>(reports.size());
    avg.data_mb += r.data_load_mb / static_cast<double>(reports.size());
  }
  return avg;
}

TEST(PaperClaims, BiddingReducesCacheMissesAndDataLoadOnRepetitiveWorkloads) {
  // Paper conclusion #2: fewer cache misses and lower data load.
  const Averages bidding =
      run_cell("bidding", workload::JobConfig::k80Large, cluster::FleetPreset::kAllEqual);
  const Averages baseline =
      run_cell("baseline", workload::JobConfig::k80Large, cluster::FleetPreset::kAllEqual);
  EXPECT_LT(bidding.misses, baseline.misses);
  EXPECT_LT(bidding.data_mb, baseline.data_mb);
}

TEST(PaperClaims, BiddingFasterOnLargeResourcesWithHeterogeneousWorkers) {
  // Paper: "Bidding outperforms the Baseline when workers have restricted
  // internet access or need to work with large resources."
  const Averages bidding =
      run_cell("bidding", workload::JobConfig::kAllDiffLarge, cluster::FleetPreset::kOneSlow);
  const Averages baseline =
      run_cell("baseline", workload::JobConfig::kAllDiffLarge, cluster::FleetPreset::kOneSlow);
  EXPECT_LT(bidding.exec_s, baseline.exec_s);
}

TEST(PaperClaims, BiddingOverheadVisibleOnSmallFastWork) {
  // Paper conclusion #3: for small resources / short workflows the contest
  // overhead makes Bidding comparable or worse. Assert the *gap closes*:
  // bidding's advantage on small work is much smaller than on large work
  // (and may invert).
  const Averages bidding_small =
      run_cell("bidding", workload::JobConfig::kAllDiffSmall, cluster::FleetPreset::kOneFast);
  const Averages baseline_small =
      run_cell("baseline", workload::JobConfig::kAllDiffSmall, cluster::FleetPreset::kOneFast);
  const Averages bidding_large =
      run_cell("bidding", workload::JobConfig::kAllDiffLarge, cluster::FleetPreset::kOneSlow);
  const Averages baseline_large =
      run_cell("baseline", workload::JobConfig::kAllDiffLarge, cluster::FleetPreset::kOneSlow);

  const double small_speedup = baseline_small.exec_s / bidding_small.exec_s;
  const double large_speedup = baseline_large.exec_s / bidding_large.exec_s;
  EXPECT_LT(small_speedup, large_speedup);
}

TEST(PaperClaims, FirstRunRejectsEverythingUnderBaseline) {
  // §4 constraint #1, observable as allocation latency + offers_rejected.
  auto owned = std::make_unique<sched::BaselineScheduler>();
  sched::BaselineScheduler* scheduler = owned.get();
  core::Engine engine(uniform_fleet(5), std::move(owned), testutil::noiseless());
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::kAllDiffEqual), SeedSequencer(42));
  (void)engine.run(workload.jobs);
  // Every job needed at least one decline round before a forced accept.
  EXPECT_EQ(scheduler->stats().forced_accepts, 120u);
}

TEST(PaperClaims, BiddingAssignsMoreWorkToFasterWorkers) {
  // "This enables the master to prioritize workers based on their
  // capabilities."
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  workload::WorkloadSpec wspec = workload::make_workload_spec(workload::JobConfig::kAllDiffLarge);
  wspec.job_count = 50;
  spec.custom_workload = wspec;
  spec.fleet = cluster::FleetPreset::kFastSlow;
  spec.iterations = 1;
  const auto reports = core::run_experiment(spec);
  // Worker 0 is fast, worker 1 is slow in the fast-slow preset.
  const auto& workers = reports[0].workers;
  EXPECT_GT(workers[0].jobs_completed, workers[1].jobs_completed);
}

TEST(Integration, FullMatrixRunsCleanly) {
  // The §6.3 matrix at reduced scale: all (scheduler, workload, fleet)
  // combinations complete every job on every iteration.
  std::vector<core::ExperimentSpec> specs;
  for (const std::string s : {"bidding", "baseline"}) {
    for (const auto config : workload::all_job_configs()) {
      for (const auto fleet : cluster::all_fleet_presets()) {
        core::ExperimentSpec spec;
        spec.scheduler = s;
        workload::WorkloadSpec wspec = workload::make_workload_spec(config);
        wspec.job_count = 15;
        spec.custom_workload = wspec;
        spec.fleet = fleet;
        spec.iterations = 2;
        specs.push_back(std::move(spec));
      }
    }
  }
  const auto reports = core::run_matrix(specs);
  EXPECT_EQ(reports.size(), specs.size() * 2);
  for (const auto& r : reports) {
    EXPECT_EQ(r.jobs_completed, 15u) << r.scheduler << "/" << r.workload << "/"
                                     << r.worker_config;
  }
}

TEST(Integration, MsrPipelineUnderBothSchedulers) {
  msr::MsrConfig config;
  config.library_count = 6;
  config.repository_count = 10;
  config.repo_min_mb = 100.0;
  config.repo_max_mb = 500.0;
  config.match_probability = 0.25;

  for (const bool use_bidding : {true, false}) {
    const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
    core::EngineConfig engine_config;
    engine_config.seed = 42;
    std::unique_ptr<sched::Scheduler> scheduler;
    if (use_bidding) {
      scheduler = std::make_unique<sched::BiddingScheduler>();
    } else {
      scheduler = std::make_unique<sched::BaselineScheduler>();
    }
    core::Engine engine(msr::make_msr_fleet(5), std::move(scheduler), engine_config);
    engine.set_workflow(pipeline.workflow);
    const auto report = engine.run(pipeline.seed_jobs);
    const std::size_t expected = pipeline.seed_jobs.size() + 2 * pipeline.analyzer_job_count();
    EXPECT_EQ(report.jobs_completed, expected);
    EXPECT_EQ(pipeline.results->total_hits(), pipeline.analyzer_job_count());
  }
}

TEST(Integration, FaultInjectionAcrossSchedulers) {
  // A worker dying mid-run must never hang or crash any scheduler; some
  // jobs may be lost (the paper has no fault-tolerance policies).
  for (const std::string name : {"bidding", "baseline", "matchmaking", "delay"}) {
    core::EngineConfig config;
    config.seed = 7;
    core::Engine engine(uniform_fleet(3), sched::SchedulerSpec(name).build(1), config);
    engine.fail_worker_at(1, ticks_from_seconds(20.0));
    const auto jobs = testutil::distinct_jobs(30, 300.0, 1.0);
    const auto report = engine.run(jobs);
    EXPECT_GT(report.jobs_completed, 0u) << name;
    EXPECT_LE(report.jobs_completed, 30u) << name;
    // The run terminated (we got here) and the survivors did real work.
    EXPECT_GT(engine.metrics().worker(0).jobs_completed +
                  engine.metrics().worker(2).jobs_completed,
              0u)
        << name;
  }
}

TEST(Integration, TraceRoundTripReproducesRun) {
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Small), SeedSequencer(42));
  std::stringstream buffer;
  workload::write_trace(buffer, workload);
  const auto loaded = workload::read_trace(buffer);

  const auto run_jobs = [](const std::vector<workflow::Job>& jobs) {
    core::Engine engine(uniform_fleet(3), std::make_unique<sched::BiddingScheduler>(),
                        testutil::noiseless(5));
    return engine.run(jobs);
  };
  const auto original = run_jobs(workload.jobs);
  const auto replayed = run_jobs(loaded.jobs);
  EXPECT_EQ(original.exec_time_s, replayed.exec_time_s);
  EXPECT_EQ(original.cache_misses, replayed.cache_misses);
  EXPECT_EQ(original.data_load_mb, replayed.data_load_mb);
}

}  // namespace
}  // namespace dlaja
