// Behavioural tests for the comparator schedulers: Spark-like, Matchmaking,
// Delay, and the simple push policies.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "sched/delay.hpp"
#include "sched/matchmaking.hpp"
#include "sched/simple.hpp"
#include "sched/spark_like.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"

namespace dlaja::sched {
namespace {

using testutil::distinct_jobs;
using testutil::noiseless;
using testutil::repeated_jobs;
using testutil::resource_job;
using testutil::uniform_fleet;

// --- Spark-like ------------------------------------------------------------

TEST(SparkLike, RoundRobinTreatsWorkersEqually) {
  core::Engine engine(uniform_fleet(4), std::make_unique<SparkLikeScheduler>(), noiseless());
  const auto report = engine.run(distinct_jobs(12, 50.0, 1.0));
  EXPECT_EQ(report.jobs_completed, 12u);
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(engine.metrics().worker(w).jobs_completed, 3u);
  }
}

TEST(SparkLike, IgnoresRuntimeLocality) {
  // Worker 0 processes the resource first, but the next job for the same
  // resource still goes to the next worker in rotation -> redundant clone.
  core::Engine engine(uniform_fleet(2), std::make_unique<SparkLikeScheduler>(), noiseless());
  const auto report = engine.run(repeated_jobs(2, 7, 100.0, 60.0));
  EXPECT_EQ(report.jobs_completed, 2u);
  EXPECT_EQ(report.cache_misses, 2u);  // both downloads happen
  EXPECT_EQ(report.data_load_mb, 200.0);
}

TEST(SparkLike, HashPlacementKeepsResourceOnOneWorker) {
  SparkLikeConfig config;
  config.placement = SparkLikeConfig::Placement::kHashByResource;
  core::Engine engine(uniform_fleet(3), std::make_unique<SparkLikeScheduler>(config),
                      noiseless());
  const auto report = engine.run(repeated_jobs(6, 7, 100.0, 30.0));
  EXPECT_EQ(report.jobs_completed, 6u);
  EXPECT_EQ(report.cache_misses, 1u);  // consistent placement: one download
}

TEST(SparkLike, AllocationIsImmediate) {
  core::Engine engine(uniform_fleet(2), std::make_unique<SparkLikeScheduler>(), noiseless());
  const auto report = engine.run(distinct_jobs(4, 50.0));
  // Push assignment: the only latency is the master->worker hop.
  EXPECT_LT(report.avg_alloc_latency_s, 0.001);
}

// --- Matchmaking -------------------------------------------------------------

TEST(Matchmaking, PrefersLocalJobsFromTheQueue) {
  auto owned = std::make_unique<MatchmakingScheduler>();
  MatchmakingScheduler* scheduler = owned.get();
  core::Engine engine(uniform_fleet(2), std::move(owned), noiseless());
  // Jobs alternate between two resources; after the first two forced
  // assignments, locality matches dominate.
  std::vector<workflow::Job> jobs;
  for (std::size_t i = 0; i < 10; ++i) {
    jobs.push_back(resource_job(i + 1, 1 + (i % 2), 200.0, 6.0 * static_cast<double>(i)));
  }
  const auto report = engine.run(jobs);
  EXPECT_EQ(report.jobs_completed, 10u);
  EXPECT_GE(scheduler->stats().local_assignments, 6u);
  EXPECT_LE(report.cache_misses, 4u);  // at most each resource on each worker
}

TEST(Matchmaking, IdleOneHeartbeatThenForced) {
  auto owned = std::make_unique<MatchmakingScheduler>();
  MatchmakingScheduler* scheduler = owned.get();
  core::Engine engine(uniform_fleet(1), std::move(owned), noiseless());
  const auto report = engine.run(distinct_jobs(1, 100.0));
  EXPECT_EQ(report.jobs_completed, 1u);
  // First request: no local match -> idle pass; second: forced.
  EXPECT_EQ(scheduler->stats().idle_passes, 1u);
  EXPECT_EQ(scheduler->stats().forced_assignments, 1u);
}

TEST(Matchmaking, BeatsRoundRobinOnRepetitiveWorkload) {
  // Two alternating resources on three workers: round-robin's rotation is
  // misaligned with the resource cycle, so it spreads each resource over
  // all workers; matchmaking converges onto the workers that hold them.
  const auto misses_with = [](const std::string& name) {
    core::Engine engine(uniform_fleet(3), SchedulerSpec(name).build(1), noiseless());
    std::vector<workflow::Job> jobs;
    for (std::size_t i = 0; i < 15; ++i) {
      jobs.push_back(resource_job(i + 1, 1 + (i % 2), 300.0, 12.0 * static_cast<double>(i)));
    }
    return engine.run(jobs).cache_misses;
  };
  EXPECT_LT(misses_with("matchmaking"), misses_with("round-robin"));
}

// --- Delay scheduling ---------------------------------------------------------

TEST(Delay, SkipsHeadJobUntilBudgetExhausted) {
  DelayConfig config;
  config.max_skips = 2;
  auto owned = std::make_unique<DelayScheduler>(config);
  DelayScheduler* scheduler = owned.get();
  core::Engine engine(uniform_fleet(1), std::move(owned), noiseless());
  const auto report = engine.run(distinct_jobs(1, 100.0));
  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(scheduler->stats().skips, 2u);
  EXPECT_EQ(scheduler->stats().expired_assignments, 1u);
}

TEST(Delay, LocalJobBypassesTheSkipQueue) {
  auto owned = std::make_unique<DelayScheduler>();
  DelayScheduler* scheduler = owned.get();
  core::Engine engine(uniform_fleet(1), std::move(owned), noiseless());
  // Prime: first job forces the download of resource 1.
  std::vector<workflow::Job> jobs;
  jobs.push_back(resource_job(1, 1, 50.0, 0.0));
  jobs.push_back(resource_job(2, 1, 50.0, 30.0));  // local by then
  const auto report = engine.run(jobs);
  EXPECT_EQ(report.jobs_completed, 2u);
  EXPECT_EQ(scheduler->stats().local_assignments, 1u);
  EXPECT_EQ(report.cache_misses, 1u);
}

TEST(Delay, UnderLoadWaitingWastesTime) {
  // The paper's critique of delay scheduling: postponing under load hurts.
  // A large skip budget with a single worker and all-distinct jobs wastes
  // heartbeats for every job versus zero budget.
  const auto exec_with = [](std::uint32_t max_skips) {
    DelayConfig config;
    config.max_skips = max_skips;
    core::Engine engine(uniform_fleet(1), std::make_unique<DelayScheduler>(config),
                        noiseless());
    return engine.run(distinct_jobs(10, 20.0)).exec_time_s;
  };
  EXPECT_GT(exec_with(8), exec_with(0));
}

// --- simple push policies -------------------------------------------------------

TEST(SimplePush, RoundRobinMatchesSparkLikeDistribution) {
  core::Engine engine(uniform_fleet(3),
                      std::make_unique<SimplePushScheduler>(PushPolicy::kRoundRobin),
                      noiseless());
  const auto report = engine.run(distinct_jobs(9, 50.0, 1.0));
  EXPECT_EQ(report.jobs_completed, 9u);
  for (std::uint32_t w = 0; w < 3; ++w) {
    EXPECT_EQ(engine.metrics().worker(w).jobs_completed, 3u);
  }
}

TEST(SimplePush, RandomCoversAllWorkers) {
  core::Engine engine(uniform_fleet(3),
                      std::make_unique<SimplePushScheduler>(PushPolicy::kRandom, 7),
                      noiseless());
  const auto report = engine.run(distinct_jobs(60, 10.0, 0.5));
  EXPECT_EQ(report.jobs_completed, 60u);
  for (std::uint32_t w = 0; w < 3; ++w) {
    EXPECT_GT(engine.metrics().worker(w).jobs_completed, 5u);
  }
}

TEST(SimplePush, LeastQueueBalancesHeterogeneousService) {
  auto fleet = uniform_fleet(2, 50.0, 100.0);
  fleet[0].network_mbps = 200.0;  // finishes faster -> shorter queue -> more jobs
  fleet[0].rw_mbps = 400.0;
  core::Engine engine(fleet,
                      std::make_unique<SimplePushScheduler>(PushPolicy::kLeastQueue),
                      noiseless());
  const auto report = engine.run(distinct_jobs(20, 400.0, 2.0));
  EXPECT_EQ(report.jobs_completed, 20u);
  EXPECT_GT(engine.metrics().worker(0).jobs_completed,
            engine.metrics().worker(1).jobs_completed);
}

// --- factory ----------------------------------------------------------------

TEST(Factory, AllNamesConstructAndReportTheirName) {
  for (const std::string& name : SchedulerSpec::known_types()) {
    const auto scheduler = SchedulerSpec(name).build(1);
    ASSERT_NE(scheduler, nullptr) << name;
    EXPECT_EQ(scheduler->name(), name);
  }
  EXPECT_THROW(SchedulerSpec("bogus").build(1), std::invalid_argument);
}

}  // namespace
}  // namespace dlaja::sched
