// Property matrix over the engine's optional modes: every combination of
// (scheduler × shared bandwidth × lease-based reassignment) must preserve
// the conservation laws, with and without a mid-run worker failure.

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "core/engine.hpp"
#include "metrics/timeline.hpp"
#include "msr/msr.hpp"
#include "sched/factory.hpp"
#include "test_helpers.hpp"
#include "util/csv.hpp"

namespace dlaja {
namespace {

using Param = std::tuple<std::string, bool, bool>;  // scheduler, shared, reassign

class EngineOptions : public ::testing::TestWithParam<Param> {};

TEST_P(EngineOptions, ConservationHoldsWithFailure) {
  const auto [scheduler, shared, reassign] = GetParam();
  core::EngineConfig config;
  config.seed = 99;
  config.shared_bandwidth = shared;
  config.origin_capacity_mbps = 120.0;
  config.lifecycle.enabled = reassign;

  core::Engine engine(testutil::uniform_fleet(3), sched::make_scheduler(scheduler), config);
  engine.fail_worker_at(1, ticks_from_seconds(12.0));
  const auto report = engine.run(testutil::distinct_jobs(18, 250.0, 0.5));

  if (reassign) {
    EXPECT_EQ(report.jobs_completed, 18u);
    EXPECT_EQ(report.jobs_lost, 0u);
    EXPECT_GT(engine.jobs_retried(), 0u);
  } else {
    EXPECT_LE(report.jobs_completed, 18u);
    EXPECT_GT(report.jobs_completed, 0u);
  }
  // Accounting invariants hold in every mode.
  std::uint64_t by_worker = 0;
  double data = 0.0;
  for (const auto& w : report.workers) {
    by_worker += w.jobs_completed;
    data += w.downloaded_mb;
  }
  EXPECT_EQ(by_worker, report.jobs_completed);
  EXPECT_NEAR(data, report.data_load_mb, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineOptions,
    ::testing::Combine(::testing::Values("bidding", "matchmaking", "spark-like"),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param);
      name += std::get<1>(param_info.param) ? "_shared" : "_independent";
      name += std::get<2>(param_info.param) ? "_reassign" : "_lossy";
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- analytic cost-model validation ------------------------------------------

TEST(CostModel, SingleWorkerNoiselessMatchesArithmetic) {
  // One worker at 50 MB/s network, 100 MB/s rw. Three distinct jobs of
  // 100 MB with 0.5 s fixed cost each, all available immediately:
  // per job 2 s transfer + 1 s processing + 0.5 s fixed = 3.5 s; 10.5 s
  // of service; end-to-end adds only allocation latency (bid compute +
  // message hops), which is bounded by ~0.1 s here.
  core::Engine engine(testutil::uniform_fleet(1, 50.0, 100.0),
                      sched::make_scheduler("bidding"), testutil::noiseless());
  auto jobs = testutil::distinct_jobs(3, 100.0);
  for (auto& job : jobs) job.fixed_cost = ticks_from_seconds(0.5);
  const auto report = engine.run(jobs);
  EXPECT_EQ(report.jobs_completed, 3u);
  EXPECT_GE(report.exec_time_s, 10.5);
  EXPECT_LE(report.exec_time_s, 10.7);
  // The worker's busy time is exactly the service time.
  EXPECT_EQ(report.workers[0].busy_ticks, ticks_from_seconds(10.5));
  EXPECT_EQ(report.workers[0].downloading_ticks, ticks_from_seconds(6.0));
}

TEST(CostModel, CachedJobsSkipTransferArithmetic) {
  core::Engine engine(testutil::uniform_fleet(1, 50.0, 100.0),
                      sched::make_scheduler("bidding"), testutil::noiseless());
  engine.preload_cache(0, std::vector<storage::Resource>{{1, 100.0}, {2, 100.0}});
  const auto report = engine.run(testutil::distinct_jobs(2, 100.0));
  // 2 x 1 s processing only.
  EXPECT_EQ(report.workers[0].busy_ticks, ticks_from_seconds(2.0));
  EXPECT_EQ(report.workers[0].downloading_ticks, 0);
}

// --- co-occurrence CSV (step 4 of the §2 protocol) ------------------------------

TEST(CoOccurrenceCsv, WritesSortedPairs) {
  msr::CoOccurrenceCounter counter;
  counter.record(1, 100);
  counter.record(2, 100);
  counter.record(1, 200);
  counter.record(2, 200);
  counter.record(3, 200);
  std::ostringstream out;
  counter.write_csv(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("library_a,library_b,co_occurrences"), std::string::npos);
  // (1,2) co-occurs twice and must come first.
  const auto first_row = text.find('\n') + 1;
  EXPECT_EQ(text.substr(first_row, 6), "1,2,2\n");
}

// --- per-job CSV export ---------------------------------------------------------

TEST(JobsCsv, ExportsOneRowPerJob) {
  core::Engine engine(testutil::uniform_fleet(2), sched::make_scheduler("bidding"),
                      testutil::noiseless());
  (void)engine.run(testutil::distinct_jobs(4, 50.0, 1.0));
  std::ostringstream out;
  metrics::write_jobs_csv(out, engine.metrics());
  const auto rows = csv_parse(out.str());
  ASSERT_EQ(rows.size(), 5u);  // header + 4 jobs
  EXPECT_EQ(rows[0][0], "job_id");
  EXPECT_EQ(rows[1][0], "1");
  EXPECT_EQ(rows[1][6], "1");  // first job on a cold cache is a miss
}

}  // namespace
}  // namespace dlaja
