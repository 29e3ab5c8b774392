// Tests for multi-slot (parallel) worker execution.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "sched/baseline.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"

namespace dlaja::cluster {
namespace {

class SlotTest : public ::testing::Test {
 protected:
  SlotTest() : seeds_(42), network_(seeds_, net::NoiseConfig::none()), metrics_(1) {
    config_.name = "w0";
    config_.network_mbps = 50.0;  // 100 MB -> 2 s
    config_.rw_mbps = 100.0;      // 100 MB -> 1 s
    config_.slots = 2;
    node_ = network_.register_node(config_.name, {});
  }

  [[nodiscard]] WorkerNode make_worker() {
    return WorkerNode(0, config_, sim_, network_, node_, metrics_, seeds_);
  }

  [[nodiscard]] static workflow::Job job(workflow::JobId id, storage::ResourceId res,
                                         MegaBytes size) {
    workflow::Job j;
    j.id = id;
    j.resource = res;
    j.resource_size_mb = size;
    j.process_mb = size;
    return j;
  }

  SeedSequencer seeds_;
  sim::Simulator sim_;
  net::NetworkModel network_;
  metrics::MetricsCollector metrics_;
  WorkerConfig config_;
  net::NodeId node_{};
};

TEST_F(SlotTest, TwoJobsRunConcurrently) {
  auto worker = make_worker();
  worker.enqueue(job(1, 1, 100.0));
  worker.enqueue(job(2, 2, 100.0));
  EXPECT_EQ(worker.busy_slots(), 2u);
  EXPECT_EQ(worker.queue_length(), 0u);
  sim_.run();
  // Each job takes 3 s; run in parallel they finish together at t=3.
  EXPECT_EQ(metrics_.find_job(1)->finished, ticks_from_seconds(3.0));
  EXPECT_EQ(metrics_.find_job(2)->finished, ticks_from_seconds(3.0));
}

TEST_F(SlotTest, ThirdJobWaitsForAFreeSlot) {
  auto worker = make_worker();
  worker.enqueue(job(1, 1, 100.0));
  worker.enqueue(job(2, 2, 200.0));  // 4+2 = 6 s
  worker.enqueue(job(3, 3, 100.0));
  EXPECT_EQ(worker.busy_slots(), 2u);
  EXPECT_EQ(worker.queue_length(), 1u);
  sim_.run();
  // Job 3 starts when job 1's slot frees at t=3, finishing at t=6.
  EXPECT_EQ(metrics_.find_job(3)->started, ticks_from_seconds(3.0));
  EXPECT_EQ(metrics_.find_job(3)->finished, ticks_from_seconds(6.0));
}

TEST_F(SlotTest, BidEstimateDividesBacklogByLanes) {
  auto worker = make_worker();
  worker.enqueue(job(1, 1, 100.0));
  worker.enqueue(job(2, 2, 100.0));
  // Backlog = 3 s + 3 s = 6 s; per lane 3 s; new job (uncached 100 MB)
  // adds 2 s transfer + 1 s processing.
  EXPECT_DOUBLE_EQ(worker.backlog_cost_s(), 6.0);
  EXPECT_DOUBLE_EQ(worker.estimate_bid_s(job(9, 9, 100.0)), 3.0 + 3.0);
}

TEST_F(SlotTest, IdleFiresOnceAllSlotsDrain) {
  auto worker = make_worker();
  int idle_calls = 0;
  worker.on_idle = [&](WorkerIndex) { ++idle_calls; };
  worker.enqueue(job(1, 1, 100.0));
  worker.enqueue(job(2, 2, 300.0));
  sim_.run();
  EXPECT_EQ(idle_calls, 1);
  EXPECT_TRUE(worker.idle());
  EXPECT_EQ(worker.busy_slots(), 0u);
}

TEST_F(SlotTest, FailureCancelsEverySlot) {
  auto worker = make_worker();
  worker.enqueue(job(1, 1, 500.0));
  worker.enqueue(job(2, 2, 500.0));
  sim_.run(ticks_from_seconds(1.0));
  const auto lost = worker.set_failed(true);
  EXPECT_EQ(lost.size(), 2u);  // both slot jobs are reported lost
  sim_.run();
  EXPECT_FALSE(metrics_.find_job(1)->completed());
  EXPECT_FALSE(metrics_.find_job(2)->completed());
  EXPECT_EQ(worker.busy_slots(), 0u);
}

TEST_F(SlotTest, MultiSlotFleetFinishesFasterOnParallelWork) {
  const auto exec_with = [](std::uint32_t slots) {
    auto fleet = testutil::uniform_fleet(2, 1000.0, 50.0);  // processing-bound
    for (auto& w : fleet) w.slots = slots;
    core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1),
                        testutil::noiseless());
    return engine.run(testutil::distinct_jobs(12, 200.0)).exec_time_s;
  };
  EXPECT_LT(exec_with(4), exec_with(1) * 0.5);
}

TEST_F(SlotTest, BaselinePrefetchScalesWithSlots) {
  auto fleet = testutil::uniform_fleet(1);
  fleet[0].slots = 3;
  sched::BaselineConfig config;
  config.prefetch_depth = 1;
  core::Engine engine(fleet, std::make_unique<sched::BaselineScheduler>(config),
                      testutil::noiseless());
  // 4 jobs: 3 running + 1 prefetched can all be in hand at once.
  const auto report = engine.run(testutil::distinct_jobs(4, 1000.0));
  EXPECT_EQ(report.jobs_completed, 4u);
  const auto* last = engine.metrics().find_job(4);
  // The fourth job is allocated while the first three still run.
  EXPECT_LT(last->assigned - last->arrived, ticks_from_seconds(10.0));
}

}  // namespace
}  // namespace dlaja::cluster
