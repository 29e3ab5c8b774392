// Tests for MSR workload flattening and the fairness metric.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/engine.hpp"
#include "metrics/report.hpp"
#include "msr/msr.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"
#include "workload/trace_io.hpp"

namespace dlaja {
namespace {

msr::MsrConfig tiny_msr() {
  msr::MsrConfig config;
  config.library_count = 6;
  config.repository_count = 10;
  config.repo_min_mb = 50.0;
  config.repo_max_mb = 300.0;
  config.match_probability = 0.3;
  return config;
}

// --- flatten_to_workload ------------------------------------------------------

TEST(MsrFlatten, CoversEveryMatchExactlyOnce) {
  const auto config = tiny_msr();
  const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
  const auto workload = msr::flatten_to_workload(pipeline, config);
  EXPECT_EQ(workload.jobs.size(), pipeline.analyzer_job_count());
  std::set<std::string> keys;
  for (const auto& job : workload.jobs) keys.insert(job.key);
  EXPECT_EQ(keys.size(), workload.jobs.size());  // all distinct (lib, repo) pairs
}

TEST(MsrFlatten, ArrivalsSortedAndOffsetBySearchLatency) {
  const auto config = tiny_msr();
  const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
  const auto workload = msr::flatten_to_workload(pipeline, config);
  ASSERT_FALSE(workload.jobs.empty());
  EXPECT_GE(workload.jobs.front().created_at, ticks_from_seconds(config.search_s));
  for (std::size_t i = 1; i < workload.jobs.size(); ++i) {
    EXPECT_GE(workload.jobs[i].created_at, workload.jobs[i - 1].created_at);
    EXPECT_EQ(workload.jobs[i].id, i + 1);
  }
}

TEST(MsrFlatten, SizesMatchTheCatalog) {
  const auto config = tiny_msr();
  const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
  const auto workload = msr::flatten_to_workload(pipeline, config);
  for (const auto& job : workload.jobs) {
    EXPECT_EQ(job.resource_size_mb, pipeline.catalog.size_of(job.resource));
    EXPECT_EQ(job.process_mb, job.resource_size_mb);
  }
}

TEST(MsrFlatten, RoundTripsThroughTraceIo) {
  const auto config = tiny_msr();
  const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
  const auto workload = msr::flatten_to_workload(pipeline, config);
  std::stringstream buffer;
  workload::write_trace(buffer, workload);
  const auto loaded = workload::read_trace(buffer);
  EXPECT_EQ(loaded.jobs.size(), workload.jobs.size());
}

TEST(MsrFlatten, RunsThroughAGenericEngine) {
  const auto config = tiny_msr();
  const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
  const auto workload = msr::flatten_to_workload(pipeline, config);
  core::Engine engine(msr::make_msr_fleet(3), sched::SchedulerSpec("bidding").build(1),
                      testutil::noiseless());
  const auto report = engine.run(workload.jobs);
  EXPECT_EQ(report.jobs_completed, workload.jobs.size());
}

// --- fairness ------------------------------------------------------------------

TEST(Fairness, JainIndexFormula) {
  const std::vector<double> even{10.0, 10.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(metrics::jain_fairness(even), 1.0);
  const std::vector<double> one_hog{40.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(metrics::jain_fairness(one_hog), 0.25);  // 1/N
  const std::vector<double> mixed{30.0, 10.0};
  EXPECT_NEAR(metrics::jain_fairness(mixed), 0.8, 1e-12);
  EXPECT_EQ(metrics::jain_fairness({}), 0.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_EQ(metrics::jain_fairness(zeros), 0.0);
}

TEST(Fairness, ReportCarriesIndexAndCsvExportsIt) {
  core::Engine engine(testutil::uniform_fleet(4), sched::SchedulerSpec("round-robin").build(1),
                      testutil::noiseless());
  auto report = engine.run(testutil::distinct_jobs(16, 100.0, 1.0));
  // Equal workers, equal jobs, round-robin: near-perfect fairness.
  EXPECT_GT(report.fairness_index, 0.95);
  std::ostringstream out;
  metrics::write_reports_csv(out, {report});
  EXPECT_NE(out.str().find("fairness_index"), std::string::npos);
}

TEST(Fairness, LocalityTradesFairnessAsThePaperDescribes) {
  // §3: data awareness is "achieved through compromising the fairness of
  // task allocation". On a repetitive workload the locality scheduler
  // concentrates work on clone holders; round-robin spreads it evenly.
  const auto fairness_of = [](const std::string& scheduler) {
    core::Engine engine(testutil::uniform_fleet(4), sched::SchedulerSpec(scheduler).build(1),
                        testutil::noiseless());
    std::vector<workflow::Job> jobs;
    for (std::size_t i = 0; i < 24; ++i) {
      jobs.push_back(testutil::resource_job(i + 1, 1 + (i % 2), 200.0,
                                            8.0 * static_cast<double>(i)));
    }
    return engine.run(jobs).fairness_index;
  };
  EXPECT_LT(fairness_of("bidding"), fairness_of("round-robin"));
}

}  // namespace
}  // namespace dlaja
