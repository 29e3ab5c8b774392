// End-to-end smoke: a small workload runs to completion under every
// scheduler and the paper's core invariants hold.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "sched/spec.hpp"

namespace dlaja {
namespace {

TEST(Smoke, EverySchedulerCompletesASmallWorkload) {
  for (const std::string& name : sched::SchedulerSpec::known_types()) {
    core::ExperimentSpec spec;
    spec.scheduler = name;
    spec.iterations = 1;
    workload::WorkloadSpec wspec = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
    wspec.job_count = 20;
    spec.custom_workload = wspec;
    const auto reports = core::run_experiment(spec);
    ASSERT_EQ(reports.size(), 1u) << name;
    EXPECT_EQ(reports[0].jobs_completed, 20u) << name;
    EXPECT_GT(reports[0].exec_time_s, 0.0) << name;
  }
}

}  // namespace
}  // namespace dlaja
