// Tests for the recovery path (the paper's §5 future work: "redistributing
// the remaining jobs if a worker becomes unavailable"): with the job
// lifecycle on, a dead worker's leases are voided and its jobs retried on
// the survivors.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"

namespace dlaja::core {
namespace {

using testutil::distinct_jobs;
using testutil::noiseless;
using testutil::uniform_fleet;

EngineConfig with_leases(std::uint64_t seed = 42) {
  EngineConfig config = noiseless(seed);
  config.lifecycle.enabled = true;
  return config;
}

TEST(Reassignment, EveryLogicalJobCompletesDespiteWorkerDeath) {
  Engine engine(uniform_fleet(3), sched::SchedulerSpec("bidding").build(1), with_leases());
  engine.fail_worker_at(1, ticks_from_seconds(15.0));
  const auto report = engine.run(distinct_jobs(20, 300.0, 0.5));
  // Each of the 20 logical jobs completes exactly once: dead attempts are
  // replaced by fresh copies, completed ones are not duplicated.
  EXPECT_EQ(report.jobs_completed, 20u);
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_GT(engine.jobs_retried(), 0u);
  EXPECT_EQ(engine.jobs_submitted(), 20u + engine.jobs_retried());
}

TEST(Reassignment, OffByDefaultLosesJobs) {
  Engine engine(uniform_fleet(3), sched::SchedulerSpec("bidding").build(1), noiseless());
  engine.fail_worker_at(1, ticks_from_seconds(15.0));
  const auto report = engine.run(distinct_jobs(20, 300.0, 0.5));
  EXPECT_LT(report.jobs_completed, 20u);
  EXPECT_GT(report.jobs_lost, 0u);
  EXPECT_EQ(engine.jobs_retried(), 0u);
}

TEST(Reassignment, SurvivorsAbsorbTheDeadWorkersQueue) {
  Engine engine(uniform_fleet(2), sched::SchedulerSpec("round-robin").build(1), with_leases());
  // Round-robin gives worker 1 exactly half of the 10 jobs; it dies almost
  // immediately, so nearly all of its share must move to worker 0.
  engine.fail_worker_at(1, ticks_from_seconds(1.0));
  const auto report = engine.run(distinct_jobs(10, 200.0, 0.1));
  EXPECT_EQ(report.jobs_completed, 10u);
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_GT(engine.jobs_retried(), 0u);
  EXPECT_GE(engine.metrics().worker(0).jobs_completed, 9u);
}

TEST(Reassignment, WorksAcrossSchedulers) {
  for (const std::string name : {"bidding", "matchmaking", "delay", "spark-like", "bar"}) {
    Engine engine(uniform_fleet(3), sched::SchedulerSpec(name).build(1), with_leases(7));
    engine.fail_worker_at(2, ticks_from_seconds(10.0));
    const auto report = engine.run(distinct_jobs(15, 200.0, 0.5));
    EXPECT_EQ(report.jobs_completed, 15u) << name;
    EXPECT_EQ(report.jobs_lost, 0u) << name;
    EXPECT_GT(engine.jobs_retried(), 0u) << name;
  }
}

TEST(Reassignment, MultipleFailuresStillDrainEverything) {
  Engine engine(uniform_fleet(4), sched::SchedulerSpec("bidding").build(1), with_leases());
  engine.fail_worker_at(0, ticks_from_seconds(8.0));
  engine.fail_worker_at(3, ticks_from_seconds(20.0));
  const auto report = engine.run(distinct_jobs(24, 200.0, 0.5));
  EXPECT_EQ(report.jobs_completed, 24u);
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_GT(engine.jobs_retried(), 0u);
  EXPECT_EQ(engine.metrics().worker(0).jobs_completed +
                engine.metrics().worker(3).jobs_completed +
                engine.metrics().worker(1).jobs_completed +
                engine.metrics().worker(2).jobs_completed,
            24u);
}

TEST(Reassignment, NoFailureMeansNoReassignment) {
  Engine engine(uniform_fleet(2), sched::SchedulerSpec("bidding").build(1), with_leases());
  const auto report = engine.run(distinct_jobs(6, 50.0));
  EXPECT_EQ(report.jobs_completed, 6u);
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_EQ(engine.jobs_retried(), 0u);
}

}  // namespace
}  // namespace dlaja::core
