// Fault injection and job-lifecycle tests.
//
// Covers the fault plan grammar, deterministic materialization, the
// conservation property (no submitted job is ever lost — it completes or
// dead-letters), the lease machinery, and the scheduler-side fault
// regressions (duplicate bids, all-dead placement).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "fault/plan.hpp"
#include "sched/bidding.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace dlaja {
namespace {

[[nodiscard]] core::EngineConfig fault_config(const std::string& spec,
                                              std::uint64_t seed = 42) {
  core::EngineConfig config = testutil::noiseless(seed);
  config.faults = fault::FaultPlan::parse(spec);
  return config;
}

// --- plan grammar -------------------------------------------------------------

TEST(FaultPlanParse, ParsesEveryClauseKind) {
  const auto plan = fault::FaultPlan::parse(
      "crash:w=1,at=15,down=30;crashes:p=0.5,window=60,down=20;"
      "degrade:w=2,at=10,for=30,x=0.25;drop:p=0.01;dup:p=0.005");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].worker, 1u);
  EXPECT_EQ(plan.crashes[0].at, ticks_from_seconds(15.0));
  EXPECT_EQ(plan.crashes[0].down_for, ticks_from_seconds(30.0));
  ASSERT_EQ(plan.random_crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.random_crashes[0].per_worker_p, 0.5);
  EXPECT_DOUBLE_EQ(plan.random_crashes[0].window_s, 60.0);
  EXPECT_DOUBLE_EQ(plan.random_crashes[0].mean_down_s, 20.0);
  ASSERT_EQ(plan.degradations.size(), 1u);
  EXPECT_EQ(plan.degradations[0].worker, 2u);
  EXPECT_EQ(plan.degradations[0].at, ticks_from_seconds(10.0));
  EXPECT_EQ(plan.degradations[0].duration, ticks_from_seconds(30.0));
  EXPECT_DOUBLE_EQ(plan.degradations[0].factor, 0.25);
  EXPECT_DOUBLE_EQ(plan.messages.drop_p, 0.01);
  EXPECT_DOUBLE_EQ(plan.messages.dup_p, 0.005);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, OmittedDownMeansPermanentCrash) {
  const auto plan = fault::FaultPlan::parse("crash:w=0,at=5");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].down_for, 0u);
}

TEST(FaultPlanParse, EmptyAndBlankSpecsAreEmpty) {
  EXPECT_TRUE(fault::FaultPlan::parse("").empty());
  EXPECT_TRUE(fault::FaultPlan::parse(";;").empty());
  EXPECT_EQ(fault::FaultPlan::parse("").describe(), "none");
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)fault::FaultPlan::parse("explode:p=1"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash:w=1"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash:w1"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("drop:p=2"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("drop:p=abc"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("degrade:w=0,at=0,for=0,x=0.5"),
               std::invalid_argument);
}

TEST(FaultPlanParse, DescribeSummarizesClauses) {
  const auto plan = fault::FaultPlan::parse("crash:w=1,at=15;drop:p=0.01");
  const std::string text = plan.describe();
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("drop"), std::string::npos);
}

TEST(FaultPlanMaterialize, SameSeedSameSchedule) {
  const auto plan = fault::FaultPlan::parse("crashes:p=0.5,window=60,down=20");
  const SeedSequencer a(42), b(42);
  const auto ca = plan.materialize_crashes(a, 8);
  const auto cb = plan.materialize_crashes(b, 8);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].worker, cb[i].worker);
    EXPECT_EQ(ca[i].at, cb[i].at);
    EXPECT_EQ(ca[i].down_for, cb[i].down_for);
  }
  // Sorted by (at, worker) so injection order never depends on clause order.
  for (std::size_t i = 1; i < ca.size(); ++i) {
    EXPECT_TRUE(ca[i - 1].at < ca[i].at ||
                (ca[i - 1].at == ca[i].at && ca[i - 1].worker < ca[i].worker));
  }
}

TEST(FaultPlanMaterialize, RejectsOutOfRangeWorkerIndices) {
  const auto plan = fault::FaultPlan::parse("crash:w=9,at=1");
  const SeedSequencer seeds(42);
  EXPECT_THROW((void)plan.materialize_crashes(seeds, 4), std::invalid_argument);
}

// --- fault-free runs stay untouched ------------------------------------------

TEST(FaultFree, EmptyPlanMatchesPlainRunExactly) {
  const auto run_once = [](bool with_empty_plan) {
    auto fleet = testutil::uniform_fleet(3);
    core::EngineConfig config = testutil::noiseless();
    if (with_empty_plan) config.faults = fault::FaultPlan::parse("");
    core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1), config);
    return engine.run(testutil::distinct_jobs(12, 150.0, 0.5));
  };
  const auto plain = run_once(false);
  const auto planned = run_once(true);
  EXPECT_EQ(plain.exec_time_s, planned.exec_time_s);
  EXPECT_EQ(plain.jobs_completed, planned.jobs_completed);
  // Includes sim.events_fired: the empty plan must add zero events.
  EXPECT_EQ(plain.stats, planned.stats);
  EXPECT_EQ(planned.jobs_retried, 0u);
  EXPECT_EQ(planned.jobs_dead_lettered, 0u);
}

TEST(FaultFree, GenerousLifecycleDoesNotPerturbJobTimings) {
  const auto run_once = [](bool lifecycle) {
    auto fleet = testutil::uniform_fleet(3);
    core::EngineConfig config = testutil::noiseless();
    config.lifecycle.enabled = lifecycle;
    core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1), config);
    return engine.run(testutil::distinct_jobs(12, 150.0, 0.5));
  };
  const auto plain = run_once(false);
  const auto guarded = run_once(true);
  // Leases are bookkeeping only: same completions at the same times.
  EXPECT_EQ(plain.exec_time_s, guarded.exec_time_s);
  EXPECT_EQ(plain.jobs_completed, guarded.jobs_completed);
  EXPECT_EQ(guarded.jobs_retried, 0u);
  EXPECT_EQ(guarded.jobs_dead_lettered, 0u);
}

// --- determinism --------------------------------------------------------------

TEST(FaultDeterminism, SameSeedAndPlanReproduceExactly) {
  const char* kPlan = "crashes:p=0.7,window=40,down=15;drop:p=0.03;dup:p=0.02";
  const auto run_once = [&] {
    auto fleet = testutil::uniform_fleet(4);
    core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1),
                        fault_config(kPlan, 7));
    return engine.run(testutil::distinct_jobs(30, 200.0, 0.5));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_retried, b.jobs_retried);
  EXPECT_EQ(a.jobs_dead_lettered, b.jobs_dead_lettered);
  EXPECT_EQ(a.stats, b.stats);
}

// --- conservation: no job is ever lost ----------------------------------------

TEST(FaultConservation, EveryJobTerminatesAcrossSchedulersAndSeeds) {
  const char* kPlan = "crashes:p=0.7,window=40,down=15;drop:p=0.03;dup:p=0.02";
  for (const char* name : {"bidding", "baseline", "spark-like"}) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      auto fleet = testutil::uniform_fleet(4);
      core::Engine engine(fleet, sched::SchedulerSpec(name).build(1),
                          fault_config(kPlan, seed));
      const auto report = engine.run(testutil::distinct_jobs(40, 200.0, 0.5));
      EXPECT_EQ(report.jobs_lost, 0u);
      ASSERT_NE(engine.lifecycle(), nullptr);
      EXPECT_EQ(engine.lifecycle()->unresolved(), 0u);
      const auto& ls = engine.lifecycle()->stats();
      // Each tracked attempt resolved exactly one way.
      EXPECT_EQ(ls.tracked, ls.completed + ls.dead_letters + ls.retries);
      EXPECT_EQ(ls.dead_letters, engine.lifecycle()->dead_letters().size());
    }
  }
}

// --- lease machinery ----------------------------------------------------------

TEST(FaultLifecycle, AggressiveLeasesReArmWhileTheWorkerStillHolds) {
  auto fleet = testutil::uniform_fleet(1);
  core::EngineConfig config = testutil::noiseless();
  config.lifecycle.enabled = true;
  config.lifecycle.lease_min_s = 1.0;
  config.lifecycle.lease_factor = 0.1;
  core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1), config);
  // 500 MB: 10 s transfer + 5 s processing, far beyond the ~1.5 s lease.
  const auto report = engine.run(testutil::distinct_jobs(2, 500.0));
  EXPECT_EQ(report.jobs_completed, 2u);
  EXPECT_EQ(report.jobs_lost, 0u);
  ASSERT_NE(engine.lifecycle(), nullptr);
  const auto& ls = engine.lifecycle()->stats();
  EXPECT_GT(ls.leases_rearmed, 0u);
  EXPECT_EQ(ls.leases_broken, 0u);
  EXPECT_EQ(ls.retries, 0u);
}

TEST(FaultLifecycle, CrashVictimsRetryAndTheWorkerRejoins) {
  auto fleet = testutil::uniform_fleet(2);
  core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1),
                      fault_config("crash:w=1,at=4,down=10"));
  // Jobs every 3 s; at t=4 worker 1 is mid-job, and arrivals continue well
  // past its recovery at t=14.
  const auto report = engine.run(testutil::distinct_jobs(8, 200.0, 3.0));
  EXPECT_EQ(engine.worker_crashes(), 1u);
  EXPECT_EQ(engine.worker_recoveries(), 1u);
  EXPECT_GE(report.jobs_retried, 1u);
  EXPECT_EQ(report.jobs_dead_lettered, 0u);
  EXPECT_EQ(report.jobs_lost, 0u);
  ASSERT_NE(engine.lifecycle(), nullptr);
  EXPECT_EQ(engine.lifecycle()->unresolved(), 0u);
  const auto& ls = engine.lifecycle()->stats();
  EXPECT_EQ(ls.completed, ls.tracked - ls.retries);
  // The recovered worker takes work again.
  bool post_recovery_on_w1 = false;
  for (const auto* record : engine.metrics().jobs_in_arrival_order()) {
    if (record->worker == 1 && record->completed() &&
        record->finished > ticks_from_seconds(14.0)) {
      post_recovery_on_w1 = true;
    }
  }
  EXPECT_TRUE(post_recovery_on_w1);
}

TEST(FaultLifecycle, TotalMessageLossDeadLettersInsteadOfHanging) {
  auto fleet = testutil::uniform_fleet(2);
  core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1),
                      fault_config("drop:p=1"));
  const auto report = engine.run(testutil::distinct_jobs(3, 100.0));
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_EQ(report.jobs_dead_lettered, 3u);
  ASSERT_NE(engine.lifecycle(), nullptr);
  EXPECT_EQ(engine.lifecycle()->unresolved(), 0u);
  EXPECT_EQ(engine.lifecycle()->stats().completed, 0u);
}

// --- scheduler fault regressions ----------------------------------------------

TEST(FaultBidding, DuplicateBidsCountOncePerWorker) {
  auto fleet = testutil::uniform_fleet(3);
  auto scheduler = std::make_unique<sched::BiddingScheduler>();
  auto* bidding = scheduler.get();
  core::Engine engine(fleet, std::move(scheduler), fault_config("dup:p=1"));
  const auto report = engine.run(testutil::distinct_jobs(10, 100.0, 1.0));
  // Every message is duplicated, so every bid arrives twice — the second
  // copy must not count toward the quorum or the bid tally.
  EXPECT_GT(bidding->stats().duplicate_bids_ignored, 0u);
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_EQ(report.jobs_dead_lettered, 0u);
  for (const auto* record : engine.metrics().jobs_in_arrival_order()) {
    EXPECT_LE(record->bids_received, 3u) << "job " << record->id;
  }
  ASSERT_NE(engine.lifecycle(), nullptr);
  EXPECT_EQ(engine.lifecycle()->unresolved(), 0u);
}

class AllDead : public ::testing::TestWithParam<const char*> {};

TEST_P(AllDead, PermanentFleetLossDeadLettersEveryJob) {
  auto fleet = testutil::uniform_fleet(3);
  core::Engine engine(fleet, sched::SchedulerSpec(GetParam()).build(1),
                      fault_config("crash:w=0,at=1;crash:w=1,at=1;crash:w=2,at=1"));
  // 1000 MB jobs take ~21 s, so nothing finishes before the fleet dies.
  const auto report = engine.run(testutil::distinct_jobs(5, 1000.0));
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_EQ(report.jobs_dead_lettered, 5u);
  EXPECT_EQ(engine.worker_crashes(), 3u);
  EXPECT_EQ(engine.worker_recoveries(), 0u);
  ASSERT_NE(engine.lifecycle(), nullptr);
  EXPECT_EQ(engine.lifecycle()->unresolved(), 0u);
  EXPECT_EQ(engine.lifecycle()->stats().completed, 0u);
  EXPECT_EQ(engine.lifecycle()->dead_letters().size(), 5u);
  // Regression: with nobody alive, retries must never be blindly stamped
  // onto worker 0 (or anyone) — they route to the lifecycle instead.
  for (const auto* record : engine.metrics().jobs_in_arrival_order()) {
    if (record->arrived > ticks_from_seconds(1.0)) {
      EXPECT_EQ(record->assigned, kNeverTick) << "job " << record->id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, AllDead,
                         ::testing::Values("bidding", "baseline", "spark-like", "bar"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string name = param_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- injection mechanics ------------------------------------------------------

TEST(FaultInjection, DegradeWindowSlowsTransfers) {
  const auto run_once = [](const char* spec) {
    auto fleet = testutil::uniform_fleet(1);
    core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1), fault_config(spec));
    return engine.run(testutil::distinct_jobs(1, 100.0)).exec_time_s;
  };
  const double plain = run_once("");
  const double degraded = run_once("degrade:w=0,at=0,for=100,x=0.25");
  // 100 MB at a quarter of the bandwidth: the transfer takes 4x as long.
  EXPECT_GT(degraded, plain * 1.5);
}

TEST(FaultInjection, RandomCrashWindowsRespectTheSeed) {
  const char* kPlan = "crashes:p=0.9,window=10,down=5";
  const auto crashes_with_seed = [&](std::uint64_t seed) {
    auto fleet = testutil::uniform_fleet(4);
    core::Engine engine(fleet, sched::SchedulerSpec("bidding").build(1),
                        fault_config(kPlan, seed));
    (void)engine.run(testutil::distinct_jobs(10, 100.0, 1.0));
    return engine.worker_crashes();
  };
  EXPECT_EQ(crashes_with_seed(5), crashes_with_seed(5));
}

}  // namespace
}  // namespace dlaja
