// Tests for the arrival-process options and the per-job percentile fields.

#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"
#include "util/csv.hpp"
#include "workload/generator.hpp"

namespace dlaja {
namespace {

workload::WorkloadSpec base_spec(workload::WorkloadSpec::ArrivalProcess arrival) {
  workload::WorkloadSpec spec = workload::make_workload_spec(workload::JobConfig::kAllDiffSmall);
  spec.job_count = 40;
  spec.arrival = arrival;
  return spec;
}

TEST(Arrivals, UniformSpacingIsExact) {
  const auto workload = workload::generate_workload(
      base_spec(workload::WorkloadSpec::ArrivalProcess::kUniform), SeedSequencer(1));
  for (std::size_t i = 1; i < workload.jobs.size(); ++i) {
    EXPECT_EQ(workload.jobs[i].created_at - workload.jobs[i - 1].created_at,
              ticks_from_seconds(2.0));
  }
}

TEST(Arrivals, BurstyGroupsShareAnInstant) {
  auto spec = base_spec(workload::WorkloadSpec::ArrivalProcess::kBursty);
  spec.burst_size = 8;
  const auto workload = workload::generate_workload(spec, SeedSequencer(1));
  // Jobs within one burst have identical arrivals; bursts strictly later.
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    if (i % 8 != 0) {
      EXPECT_EQ(workload.jobs[i].created_at, workload.jobs[i - 1].created_at) << i;
    } else if (i > 0) {
      EXPECT_GT(workload.jobs[i].created_at, workload.jobs[i - 1].created_at) << i;
    }
  }
}

TEST(Arrivals, BurstyLongRunRateMatchesPerJobMean) {
  auto spec = base_spec(workload::WorkloadSpec::ArrivalProcess::kBursty);
  spec.job_count = 400;
  spec.burst_size = 10;
  const auto bursty = workload::generate_workload(spec, SeedSequencer(7));
  spec.arrival = workload::WorkloadSpec::ArrivalProcess::kExponential;
  const auto poisson = workload::generate_workload(spec, SeedSequencer(7));
  // Same long-run horizon within a factor of ~2 (independent draws).
  const double span_b = seconds_from_ticks(bursty.jobs.back().created_at);
  const double span_p = seconds_from_ticks(poisson.jobs.back().created_at);
  EXPECT_GT(span_b, span_p * 0.5);
  EXPECT_LT(span_b, span_p * 2.0);
}

TEST(Arrivals, AllProcessesRunToCompletion) {
  for (const auto arrival : {workload::WorkloadSpec::ArrivalProcess::kExponential,
                             workload::WorkloadSpec::ArrivalProcess::kUniform,
                             workload::WorkloadSpec::ArrivalProcess::kBursty}) {
    const auto workload = workload::generate_workload(base_spec(arrival), SeedSequencer(3));
    core::Engine engine(testutil::uniform_fleet(3), sched::SchedulerSpec("bidding").build(1),
                        testutil::noiseless());
    EXPECT_EQ(engine.run(workload.jobs).jobs_completed, 40u);
  }
}

TEST(Percentiles, ReportFieldsOrderedAndExported) {
  core::Engine engine(testutil::uniform_fleet(2), sched::SchedulerSpec("bidding").build(1),
                      testutil::noiseless());
  const auto report = engine.run(testutil::distinct_jobs(20, 150.0, 0.2));
  EXPECT_GT(report.p50_turnaround_s, 0.0);
  EXPECT_LE(report.p50_turnaround_s, report.p95_turnaround_s);
  EXPECT_LE(report.p95_turnaround_s, report.p99_turnaround_s);
  // Mean sits inside the distribution's range.
  EXPECT_LE(report.avg_turnaround_s, report.p99_turnaround_s);

  std::ostringstream out;
  metrics::write_reports_csv(out, {report});
  EXPECT_NE(out.str().find("p95_turnaround_s"), std::string::npos);
}

TEST(Percentiles, SingleJobDegenerates) {
  core::Engine engine(testutil::uniform_fleet(1), sched::SchedulerSpec("bidding").build(1),
                      testutil::noiseless());
  const auto report = engine.run(testutil::distinct_jobs(1, 100.0));
  EXPECT_DOUBLE_EQ(report.p50_turnaround_s, report.p99_turnaround_s);
  EXPECT_DOUBLE_EQ(report.p50_turnaround_s, report.avg_turnaround_s);
}

}  // namespace
}  // namespace dlaja
