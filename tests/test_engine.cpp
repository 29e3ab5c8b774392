// Tests for the Engine: wiring, expansion, carry-over, fault injection.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "sched/bidding.hpp"
#include "sched/baseline.hpp"
#include "test_helpers.hpp"

namespace dlaja::core {
namespace {

using testutil::distinct_jobs;
using testutil::noiseless;
using testutil::repeated_jobs;
using testutil::uniform_fleet;

[[nodiscard]] workflow::TaskSpec task_named(const char* name, bool data_intensive) {
  workflow::TaskSpec spec;
  spec.name = name;
  spec.data_intensive = data_intensive;
  return spec;
}

TEST(Engine, RejectsBadConstruction) {
  EXPECT_THROW(Engine({}, std::make_unique<sched::BiddingScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(Engine(uniform_fleet(1), nullptr), std::invalid_argument);
}

// EngineConfig::shards is kept only because perfbench sets it: a run is one
// thread, so any count but 1 is rejected up front.
TEST(ShardConfig, RejectsZeroShards) {
  EngineConfig config;
  config.shards = 0;
  EXPECT_THROW(Engine(uniform_fleet(3), std::make_unique<sched::BiddingScheduler>(), config),
               std::invalid_argument);
}

TEST(ShardConfig, RejectsMoreThanOneShard) {
  for (const std::size_t shards : {2u, 4u}) {
    EngineConfig config;
    config.shards = shards;
    EXPECT_THROW(Engine(uniform_fleet(5), std::make_unique<sched::BiddingScheduler>(), config),
                 std::invalid_argument)
        << shards;
  }
  EngineConfig config;
  config.shards = 1;
  EXPECT_NO_THROW(
      Engine(uniform_fleet(5), std::make_unique<sched::BiddingScheduler>(), config));
}

TEST(Engine, RunIsSingleShot) {
  Engine engine(uniform_fleet(1), std::make_unique<sched::BiddingScheduler>(), noiseless());
  (void)engine.run(distinct_jobs(1, 10.0));
  EXPECT_THROW((void)engine.run(distinct_jobs(1, 10.0)), std::logic_error);
  EXPECT_THROW(engine.set_workflow(nullptr), std::logic_error);
  EXPECT_THROW(engine.preload_cache(0, {}), std::logic_error);
}

TEST(Engine, CountsSubmittedAndCompleted) {
  Engine engine(uniform_fleet(2), std::make_unique<sched::BiddingScheduler>(), noiseless());
  const auto report = engine.run(distinct_jobs(5, 20.0, 1.0));
  EXPECT_EQ(engine.jobs_submitted(), 5u);
  EXPECT_EQ(engine.jobs_completed(), 5u);
  EXPECT_EQ(report.jobs_submitted, 5u);
  EXPECT_EQ(report.scheduler, "bidding");
  EXPECT_GT(report.messages_delivered, 0u);
}

TEST(Engine, ExpansionGeneratesDownstreamJobs) {
  auto wf = std::make_shared<workflow::Workflow>();
  const auto src = wf->add_task(task_named("src", false));
  const auto child = wf->add_task(task_named("child", true));
  wf->connect(src, child);
  wf->set_expander(src, [child](const workflow::Job& done, RandomStream&) {
    std::vector<workflow::Job> out;
    for (int i = 0; i < 2; ++i) {
      workflow::Job job;
      job.task = child;
      job.resource = 100 + static_cast<storage::ResourceId>(i);
      job.resource_size_mb = 50.0;
      job.process_mb = 50.0;
      job.key = done.key + "/c" + std::to_string(i);
      out.push_back(std::move(job));
    }
    return out;
  });

  Engine engine(uniform_fleet(2), std::make_unique<sched::BiddingScheduler>(), noiseless());
  engine.set_workflow(wf);

  workflow::Job seed;
  seed.id = 1;
  seed.task = src;
  seed.fixed_cost = ticks_from_seconds(0.1);
  seed.key = "seed";
  const auto report = engine.run(std::vector<workflow::Job>{seed});
  EXPECT_EQ(engine.jobs_submitted(), 3u);  // seed + 2 expanded
  EXPECT_EQ(report.jobs_completed, 3u);
}

TEST(Engine, ExpansionToNonDownstreamTaskThrows) {
  auto wf = std::make_shared<workflow::Workflow>();
  const auto a = wf->add_task(task_named("a", false));
  const auto b = wf->add_task(task_named("b", false));
  // No edge a->b!
  wf->set_expander(a, [b](const workflow::Job&, RandomStream&) {
    workflow::Job job;
    job.task = b;
    return std::vector<workflow::Job>{job};
  });
  Engine engine(uniform_fleet(1), std::make_unique<sched::BiddingScheduler>(), noiseless());
  engine.set_workflow(wf);
  workflow::Job seed;
  seed.id = 1;
  seed.task = a;
  EXPECT_THROW((void)engine.run(std::vector<workflow::Job>{seed}), std::logic_error);
}

TEST(Engine, PreloadedCacheTurnsMissesIntoHits) {
  Engine engine(uniform_fleet(1), std::make_unique<sched::BiddingScheduler>(), noiseless());
  engine.preload_cache(0, std::vector<storage::Resource>{{1, 30.0}, {2, 30.0}});
  std::vector<workflow::Job> jobs = distinct_jobs(2, 30.0, 1.0);
  const auto report = engine.run(jobs);
  EXPECT_EQ(report.cache_misses, 0u);
  EXPECT_EQ(report.data_load_mb, 0.0);
  EXPECT_DOUBLE_EQ(report.cache_hit_rate, 1.0);
}

TEST(Engine, CacheSnapshotsReflectRunOutcome) {
  Engine engine(uniform_fleet(2), std::make_unique<sched::BiddingScheduler>(), noiseless());
  (void)engine.run(distinct_jobs(4, 20.0, 1.0));
  const auto snapshots = engine.cache_snapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  std::size_t total = 0;
  for (const auto& s : snapshots) total += s.size();
  EXPECT_EQ(total, 4u);  // each distinct resource cached exactly where processed
}

TEST(Engine, WorkerDeathLosesItsJobsButRunTerminates) {
  Engine engine(uniform_fleet(2), std::make_unique<sched::BiddingScheduler>(), noiseless());
  // 10 big jobs, worker 0 dies early.
  engine.fail_worker_at(0, ticks_from_seconds(5.0));
  const auto report = engine.run(distinct_jobs(10, 500.0, 0.5));
  EXPECT_LT(report.jobs_completed, 10u);
  EXPECT_GT(report.jobs_completed, 0u);  // survivor keeps working
  EXPECT_EQ(engine.jobs_submitted(), 10u);
}

TEST(Engine, HorizonCapsRunawayRuns) {
  EngineConfig config = noiseless();
  config.horizon = ticks_from_seconds(1.0);  // far too short for the work
  Engine engine(uniform_fleet(1), std::make_unique<sched::BiddingScheduler>(), config);
  const auto report = engine.run(distinct_jobs(5, 5000.0));
  EXPECT_LT(report.jobs_completed, 5u);
}

TEST(Engine, ProbeSpeedsSeedsHistoricEstimators) {
  EngineConfig config = noiseless();
  config.estimation = cluster::SpeedEstimator::Mode::kHistoric;
  config.probe_speeds = true;
  Engine engine(uniform_fleet(2), std::make_unique<sched::BiddingScheduler>(), config);
  (void)engine.run(distinct_jobs(1, 10.0));
  EXPECT_GE(engine.worker(0).network_estimator().observations(), 1u);
}

TEST(Engine, WorkerAccessorValidatesIndex) {
  Engine engine(uniform_fleet(2), std::make_unique<sched::BiddingScheduler>(), noiseless());
  EXPECT_NO_THROW((void)engine.worker(1));
  EXPECT_THROW((void)engine.worker(2), std::out_of_range);
}

}  // namespace
}  // namespace dlaja::core
