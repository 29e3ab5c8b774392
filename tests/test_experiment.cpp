// Tests for the experiment runner: iteration carry-over, the per-iteration
// observer, matrix fan-out, determinism under parallel execution.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "sched/bidding.hpp"
#include "util/json.hpp"

namespace dlaja::core {
namespace {

ExperimentSpec small_spec(const std::string& scheduler,
                          workload::JobConfig config = workload::JobConfig::k80Small) {
  ExperimentSpec spec;
  spec.scheduler = scheduler;
  workload::WorkloadSpec wspec = workload::make_workload_spec(config);
  wspec.job_count = 30;
  spec.custom_workload = wspec;
  spec.iterations = 3;
  spec.seed = 42;
  return spec;
}

TEST(Experiment, ProducesOneReportPerIteration) {
  const auto reports = run_experiment(small_spec("bidding"));
  ASSERT_EQ(reports.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reports[i].iteration, i);
    EXPECT_EQ(reports[i].scheduler, "bidding");
    EXPECT_EQ(reports[i].workload, "80%_small");
    EXPECT_EQ(reports[i].worker_config, "all-equal");
    EXPECT_EQ(reports[i].jobs_completed, 30u);
  }
}

TEST(Experiment, CacheCarryOverReducesMissesAcrossIterations) {
  // The paper's rationale for 3 iterations: later iterations find files
  // saved by earlier executions.
  const auto reports = run_experiment(small_spec("bidding"));
  EXPECT_LT(reports[1].cache_misses, reports[0].cache_misses);
  EXPECT_LE(reports[2].cache_misses, reports[1].cache_misses);
  EXPECT_LT(reports[2].data_load_mb, reports[0].data_load_mb);
}

TEST(Experiment, DisablingCarryCacheKeepsMissesFlat) {
  ExperimentSpec spec = small_spec("bidding");
  spec.carry_cache = false;
  // Use an all-different workload so within-run reuse cannot interfere.
  workload::WorkloadSpec wspec = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  wspec.job_count = 20;
  spec.custom_workload = wspec;
  const auto reports = run_experiment(spec);
  EXPECT_EQ(reports[0].cache_misses, 20u);
  EXPECT_EQ(reports[1].cache_misses, 20u);
  EXPECT_EQ(reports[2].cache_misses, 20u);
}

TEST(Experiment, SameSeedReproducesExactly) {
  const auto a = run_experiment(small_spec("baseline"));
  const auto b = run_experiment(small_spec("baseline"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].exec_time_s, b[i].exec_time_s);
    EXPECT_EQ(a[i].cache_misses, b[i].cache_misses);
    EXPECT_EQ(a[i].data_load_mb, b[i].data_load_mb);
  }
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentSpec spec = small_spec("bidding");
  const auto a = run_experiment(spec);
  spec.seed = 43;
  const auto b = run_experiment(spec);
  EXPECT_NE(a[0].exec_time_s, b[0].exec_time_s);
}

TEST(Experiment, IterationsSeeNoiseVariation) {
  // Same workload every iteration, but different noise draws: with an
  // all-different workload and no carry, exec times still differ.
  ExperimentSpec spec = small_spec("bidding", workload::JobConfig::kAllDiffEqual);
  spec.carry_cache = false;
  const auto reports = run_experiment(spec);
  EXPECT_NE(reports[0].exec_time_s, reports[1].exec_time_s);
}

TEST(Experiment, CustomSchedulerFactoryIsUsed) {
  ExperimentSpec spec = small_spec("ignored-name");
  spec.make_scheduler = [] {
    sched::BiddingConfig config;
    config.window_s = 0.25;
    return std::make_unique<sched::BiddingScheduler>(config);
  };
  spec.iterations = 1;
  const auto reports = run_experiment(spec);
  EXPECT_EQ(reports[0].scheduler, "bidding");
  EXPECT_EQ(reports[0].jobs_completed, 30u);
}

TEST(Experiment, CustomFleetIsUsed) {
  ExperimentSpec spec = small_spec("bidding");
  std::vector<cluster::WorkerConfig> fleet(2);
  fleet[0].name = "a";
  fleet[1].name = "b";
  spec.custom_fleet = fleet;
  spec.iterations = 1;
  const auto reports = run_experiment(spec);
  EXPECT_EQ(reports[0].worker_config, "custom");
  EXPECT_EQ(reports[0].workers.size(), 2u);
}

TEST(Experiment, ObserverSeesEachIterationOnceOnTheEngineItReports) {
  const ExperimentSpec spec = small_spec("bidding");
  std::vector<std::pair<char, int>> calls;
  std::vector<std::uint64_t> misses;
  std::vector<double> data_mb;
  std::vector<std::vector<std::vector<storage::Resource>>> caches_after;
  IterationObserver observer;
  observer.before = [&](int iteration, Engine& engine) {
    calls.emplace_back('b', iteration);
    // Built, carried caches preloaded, nothing run yet.
    EXPECT_EQ(engine.metrics().job_count(), 0u) << iteration;
    if (iteration > 0) {
      EXPECT_EQ(engine.cache_snapshots(), caches_after.back()) << iteration;
    }
  };
  observer.after = [&](int iteration, Engine& engine) {
    calls.emplace_back('a', iteration);
    misses.push_back(engine.metrics().total_cache_misses());
    data_mb.push_back(engine.metrics().total_data_load_mb());
    caches_after.push_back(engine.cache_snapshots());
  };
  const auto reports = run_experiment(spec, observer);
  const std::vector<std::pair<char, int>> expected = {{'b', 0}, {'a', 0}, {'b', 1},
                                                      {'a', 1}, {'b', 2}, {'a', 2}};
  EXPECT_EQ(calls, expected);
  ASSERT_EQ(reports.size(), 3u);
  ASSERT_EQ(misses.size(), 3u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(misses[i], reports[i].cache_misses) << i;
    EXPECT_EQ(data_mb[i], reports[i].data_load_mb) << i;
  }
  // Observing changes nothing: the observed run, a run with an empty
  // observer and a plain run write the same CSV rows, wall time aside.
  const auto csv = [](std::vector<metrics::RunReport> runs) {
    for (metrics::RunReport& r : runs) r.wall_time_s = 0.0;
    std::ostringstream out;
    metrics::write_reports_csv(out, runs);
    return out.str();
  };
  EXPECT_EQ(csv(run_experiment(spec)), csv(reports));
  EXPECT_EQ(csv(run_experiment(spec, IterationObserver{})), csv(reports));
}

TEST(Experiment, MatrixMatchesSequentialCells) {
  std::vector<ExperimentSpec> specs;
  for (const std::string s : {"bidding", "baseline"}) {
    for (const workload::JobConfig c :
         {workload::JobConfig::k80Small, workload::JobConfig::kAllDiffSmall}) {
      specs.push_back(small_spec(s, c));
    }
  }
  const auto parallel = run_matrix(specs, 4);
  std::vector<metrics::RunReport> sequential;
  for (const auto& spec : specs) {
    for (auto& r : run_experiment(spec)) sequential.push_back(std::move(r));
  }
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].scheduler, sequential[i].scheduler);
    EXPECT_EQ(parallel[i].workload, sequential[i].workload);
    EXPECT_EQ(parallel[i].exec_time_s, sequential[i].exec_time_s) << i;
    EXPECT_EQ(parallel[i].cache_misses, sequential[i].cache_misses) << i;
    EXPECT_EQ(parallel[i].data_load_mb, sequential[i].data_load_mb) << i;
  }
}

// ExperimentSpec::coalesce_deliveries is kept only because perfbench sets it
// (its fleet10k_probe4 workload): the broker has one delivery path, so the
// flag validates clean and changes nothing a run reports.
TEST(Experiment, CoalesceDeliveriesChangesNoReport) {
  ExperimentSpec spec = small_spec("bidding:fanout=probe:4");
  spec.worker_count = 40;
  ExperimentSpec flagged = spec;
  flagged.coalesce_deliveries = true;
  EXPECT_TRUE(flagged.validate().empty());

  const auto csv = [](std::vector<metrics::RunReport> runs) {
    for (metrics::RunReport& r : runs) r.wall_time_s = 0.0;
    std::ostringstream out;
    metrics::write_reports_csv(out, runs);
    return out.str();
  };
  const auto plain = run_experiment(spec);
  const auto coalesced = run_experiment(flagged);
  ASSERT_EQ(coalesced.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(coalesced[i].stats, plain[i].stats) << i;
  }
  EXPECT_EQ(csv(coalesced), csv(plain));
}

TEST(Experiment, SpecNameHelpers) {
  ExperimentSpec spec;
  spec.job_config = workload::JobConfig::k80Large;
  EXPECT_EQ(spec.workload_name(), "80%_large");
  EXPECT_EQ(spec.fleet_name(), "all-equal");
  spec.custom_fleet = std::vector<cluster::WorkerConfig>{};
  EXPECT_EQ(spec.fleet_name(), "custom");
}

// ExperimentSpec::shards is kept only because perfbench reads it: validate()
// reports any count but 1, and the scenario form has no key for it.
TEST(ShardSpec, ValidateCatchesBadShardCounts) {
  ExperimentSpec spec;
  spec.worker_count = 4;
  EXPECT_TRUE(spec.validate().empty());
  for (const std::size_t shards : {0u, 2u, 8u}) {
    spec.shards = shards;
    const std::vector<ValidationIssue> issues = spec.validate();
    ASSERT_EQ(issues.size(), 1u) << shards;
    EXPECT_EQ(issues[0].field, "shards");
    EXPECT_NE(issues[0].message.find("must be 1"), std::string::npos) << issues[0].message;
  }
}

TEST(ShardSpec, ShardsKeyIsUnknown) {
  try {
    (void)ExperimentSpec::from_json(json::parse(R"({"shards": 2})"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown key 'shards'"), std::string::npos) << what;
    // The valid-key listing names the kept keys but no longer 'shards'.
    const std::string listing = what.substr(what.find("(valid: "));
    EXPECT_NE(listing.find("flat_control_plane"), std::string::npos) << what;
    EXPECT_EQ(listing.find("shards"), std::string::npos) << what;
  }
}

TEST(ShardSpec, ScenarioRoundTripsFlatControlPlaneButNotShards) {
  ExperimentSpec spec;
  spec.name = "flat-rt";
  spec.flat_control_plane = true;
  spec.shards = 4;
  const std::string text = spec.to_json().dump();
  EXPECT_EQ(text.find("shards"), std::string::npos) << text;
  const ExperimentSpec back = ExperimentSpec::from_json(spec.to_json());
  EXPECT_TRUE(back.flat_control_plane);
  EXPECT_EQ(back.shards, 1u);

  // Default values stay out of the serialized form.
  EXPECT_EQ(ExperimentSpec{}.to_json().dump().find("flat_control_plane"), std::string::npos);
}

}  // namespace
}  // namespace dlaja::core
