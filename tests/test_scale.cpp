// Tests for the large-fleet scale path: fan-out policies, the BidSet, the
// broker's subscriber slab and delivery coalescing, scenario round-trips,
// and the factory's config-string registry.
//
// The golden cells pin the `fanout=full` path bit-exactly (hexfloat
// doubles, exact integer counters): full fan-out is the paper-faithful
// protocol and must stay bit-identical across refactors of the broker or
// the contest machinery. Regenerate only for a deliberate semantic change.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "msg/broker.hpp"
#include "sched/bid_set.hpp"
#include "sched/factory.hpp"
#include "sched/fanout.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace dlaja {
namespace {

// --- golden cells (fanout=full bit-identity) ------------------------------

core::ExperimentSpec golden_cell_a() {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  workload::WorkloadSpec w = workload::make_workload_spec(workload::JobConfig::k80Large);
  w.job_count = 60;
  spec.custom_workload = w;
  spec.fleet = cluster::FleetPreset::kFastSlow;
  spec.worker_count = 5;
  spec.iterations = 2;
  spec.seed = 20240806;
  return spec;
}

core::ExperimentSpec golden_cell_b() {
  core::ExperimentSpec spec;
  spec.scheduler = "spark-like";
  workload::WorkloadSpec w = workload::make_workload_spec(workload::JobConfig::kAllDiffSmall);
  w.job_count = 40;
  spec.custom_workload = w;
  spec.fleet = cluster::FleetPreset::kOneFast;
  spec.worker_count = 4;
  spec.iterations = 1;
  spec.seed = 77;
  return spec;
}

core::ExperimentSpec golden_cell_c() {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  workload::WorkloadSpec w = workload::make_workload_spec(workload::JobConfig::k80Small);
  w.job_count = 50;
  spec.custom_workload = w;
  spec.fleet = cluster::FleetPreset::kAllEqual;
  spec.worker_count = 5;
  spec.iterations = 1;
  spec.seed = 13;
  spec.faults =
      fault::FaultPlan::parse("crashes:p=0.5,window=60,down=20;drop:p=0.02;dup:p=0.01");
  return spec;
}

struct GoldenRow {
  double exec_time_s;
  std::uint64_t cache_misses;
  double data_load_mb;
  std::uint64_t messages_delivered;
  double events_fired;
  double events_scheduled;
  double msg_delivered;
  double contests;
};

void expect_rows(const std::vector<metrics::RunReport>& reports,
                 const std::vector<GoldenRow>& rows) {
  ASSERT_EQ(reports.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    EXPECT_EQ(reports[i].exec_time_s, rows[i].exec_time_s);
    EXPECT_EQ(reports[i].cache_misses, rows[i].cache_misses);
    EXPECT_EQ(reports[i].data_load_mb, rows[i].data_load_mb);
    EXPECT_EQ(reports[i].messages_delivered, rows[i].messages_delivered);
    EXPECT_EQ(reports[i].stat("sim.events_fired"), rows[i].events_fired);
    EXPECT_EQ(reports[i].stat("sim.events_scheduled"), rows[i].events_scheduled);
    EXPECT_EQ(reports[i].stat("msg.delivered"), rows[i].msg_delivered);
    EXPECT_EQ(reports[i].stat("sched.contests"), rows[i].contests);
  }
}

TEST(ScaleGolden, BiddingFullFanoutIsBitIdentical) {
  expect_rows(core::run_experiment(golden_cell_a()),
              {{0x1.229ed612c6ac2p+7, 26, 0x1.22715bfefa31ap+13, 720, 0x1.25p+10, 0x1.328p+10,
                0x1.68p+9, 0x1.ep+5},
               {0x1.07958c08b75eap+7, 1, 0x1.4b490c8f4c17p+1, 720, 0x1.1e4p+10, 0x1.2c4p+10,
                0x1.68p+9, 0x1.ep+5}});
}

TEST(ScaleGolden, SparkLikeIsBitIdentical) {
  expect_rows(core::run_experiment(golden_cell_b()),
              {{0x1.c43d38476f2a6p+6, 40, 0x1.af39762c3bd53p+12, 80, 0x1.9p+7, 0x1.9p+7,
                0x1.4p+6, 0x0p+0}});
}

TEST(ScaleGolden, BiddingUnderFaultsIsBitIdentical) {
  expect_rows(core::run_experiment(golden_cell_c()),
              {{0x1.4d62294141e9bp+7, 32, 0x1.1711547747511p+13, 549, 0x1.d78p+9, 0x1.06cp+10,
                0x1.128p+9, 0x1.fp+5}});
}

TEST(ScaleGolden, ExplicitFullFanoutMatchesDefaultSpec) {
  core::ExperimentSpec spec = golden_cell_a();
  spec.scheduler = "bidding:fanout=full";
  const auto explicit_full = core::run_experiment(spec);
  const auto implicit_full = core::run_experiment(golden_cell_a());
  ASSERT_EQ(explicit_full.size(), implicit_full.size());
  for (std::size_t i = 0; i < explicit_full.size(); ++i) {
    EXPECT_EQ(explicit_full[i].exec_time_s, implicit_full[i].exec_time_s);
    EXPECT_EQ(explicit_full[i].messages_delivered, implicit_full[i].messages_delivered);
    EXPECT_EQ(explicit_full[i].stat("sim.events_fired"),
              implicit_full[i].stat("sim.events_fired"));
  }
}

// --- probe:k --------------------------------------------------------------

core::ExperimentSpec probe_cell(const std::string& scheduler) {
  core::ExperimentSpec spec;
  spec.scheduler = scheduler;
  workload::WorkloadSpec w = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  w.job_count = 60;
  spec.custom_workload = w;
  spec.fleet = cluster::FleetPreset::kAllEqual;
  spec.worker_count = 40;
  spec.iterations = 1;
  spec.seed = 4242;
  return spec;
}

TEST(ScaleProbe, SameSeedIsDeterministic) {
  const auto first = core::run_experiment(probe_cell("bidding:fanout=probe:3"));
  const auto second = core::run_experiment(probe_cell("bidding:fanout=probe:3"));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].exec_time_s, second[i].exec_time_s);
    EXPECT_EQ(first[i].data_load_mb, second[i].data_load_mb);
    EXPECT_EQ(first[i].messages_delivered, second[i].messages_delivered);
    EXPECT_EQ(first[i].stat("sim.events_fired"), second[i].stat("sim.events_fired"));
  }
}

TEST(ScaleProbe, CompletesAllJobsWithBoundedContests) {
  const auto reports = core::run_experiment(probe_cell("bidding:fanout=probe:3"));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].jobs_completed, 60u);
  // Every contest saw at most k distinct bids.
  EXPECT_LE(reports[0].stat("sched.contest_bids.max"), 3.0);
  // O(k) solicitation: far fewer messages than a full 40-worker broadcast.
  const auto full = core::run_experiment(probe_cell("bidding"));
  EXPECT_LT(reports[0].messages_delivered, full[0].messages_delivered / 4);
}

TEST(ScaleProbe, CoalescedDeliveriesPreserveOutcomes) {
  core::ExperimentSpec spec = probe_cell("bidding:fanout=probe:3");
  spec.coalesce_deliveries = true;
  const auto coalesced = core::run_experiment(spec);
  const auto plain = core::run_experiment(probe_cell("bidding:fanout=probe:3"));
  // Coalescing changes kernel event counts but no simulated outcome.
  EXPECT_EQ(coalesced[0].exec_time_s, plain[0].exec_time_s);
  EXPECT_EQ(coalesced[0].data_load_mb, plain[0].data_load_mb);
  EXPECT_EQ(coalesced[0].messages_delivered, plain[0].messages_delivered);
  EXPECT_GT(coalesced[0].stat("msg.batches"), 0.0);
}

// --- cached:k -------------------------------------------------------------

core::ExperimentSpec cached_cell(const std::string& scheduler) {
  core::ExperimentSpec spec = probe_cell(scheduler);
  return spec;
}

TEST(ScaleCached, SameSeedIsDeterministic) {
  const auto first = core::run_experiment(cached_cell("bidding:fanout=cached:4"));
  const auto second = core::run_experiment(cached_cell("bidding:fanout=cached:4"));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].exec_time_s, second[i].exec_time_s);
    EXPECT_EQ(first[i].data_load_mb, second[i].data_load_mb);
    EXPECT_EQ(first[i].messages_delivered, second[i].messages_delivered);
    EXPECT_EQ(first[i].stat("sim.events_fired"), second[i].stat("sim.events_fired"));
  }
}

TEST(ScaleCached, CompletesAllJobsWithConstantMessagesPerJob) {
  const auto reports = core::run_experiment(cached_cell("bidding:fanout=cached:4"));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].jobs_completed, 60u);
  // Direct placement happened for every job; hits + declines account for
  // every placement (late binding always answers).
  EXPECT_EQ(reports[0].stat("fanout.placements"), 60.0);
  EXPECT_EQ(reports[0].stat("fanout.cache_hits") + reports[0].stat("fanout.stale_declines"),
            60.0);
  // O(1) messages per job: placement + ack + completion traffic, far below
  // even the probed contest's 2k+1.
  const auto probe = core::run_experiment(cached_cell("bidding:fanout=probe:4"));
  EXPECT_LT(reports[0].messages_delivered, probe[0].messages_delivered);
  const auto full = core::run_experiment(cached_cell("bidding"));
  EXPECT_LT(reports[0].messages_delivered, full[0].messages_delivered / 4);
}

TEST(ScaleCached, AllStaleDeclinesFallBackAndStillComplete) {
  // A negative slack makes every worker judge its placement stale: each job
  // takes the decline -> one probe re-contest path, and the run must still
  // finish every job.
  const auto reports =
      core::run_experiment(cached_cell("bidding:fanout=cached:3,slack=-1e9"));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].jobs_completed, 60u);
  EXPECT_EQ(reports[0].stat("fanout.stale_declines"), 60.0);
  EXPECT_EQ(reports[0].stat("fanout.cache_hits"), 0.0);
  // Each decline triggered exactly one fallback contest.
  EXPECT_EQ(reports[0].stat("sched.contests"), 60.0);
}

TEST(ScaleCached, ConservesJobsWhenPlacedWorkersCrash) {
  // Crash-heavy plan: placements land on workers that then die mid-flight
  // (a dropped DirectPlacement, a crashed victim, a lost ack); the
  // lease-based lifecycle must resolve every tracked attempt — no job may
  // simply vanish because the cache pointed at a corpse.
  core::EngineConfig config = testutil::noiseless(4242);
  config.faults =
      fault::FaultPlan::parse("crashes:p=0.5,window=60,down=20;drop:p=0.02;dup:p=0.01");
  auto fleet = testutil::uniform_fleet(12);
  core::Engine engine(fleet, sched::make_scheduler("bidding:fanout=cached:4"), config);
  const auto report = engine.run(testutil::distinct_jobs(60, 200.0, 0.5));
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_GT(report.jobs_completed, 0u);
  EXPECT_GT(report.stat("fault.crashes"), 0.0);
  ASSERT_NE(engine.lifecycle(), nullptr);
  EXPECT_EQ(engine.lifecycle()->unresolved(), 0u);
  // Each tracked attempt resolved exactly one way.
  const auto& ls = engine.lifecycle()->stats();
  EXPECT_EQ(ls.tracked, ls.completed + ls.dead_letters + ls.retries);
  EXPECT_EQ(ls.dead_letters, engine.lifecycle()->dead_letters().size());
}

struct CachedGolden {
  double exec_time_s;
  double data_load_mb;
  std::uint64_t jobs_completed;
  std::uint64_t messages_delivered;
  double placements;
  double events_fired;
};

void expect_cached_golden(const CachedGolden& golden) {
  const core::ExperimentSpec spec = cached_cell("bidding:fanout=cached:4");
  const auto reports = core::run_experiment(spec);
  ASSERT_EQ(reports.size(), 1u);
  const metrics::RunReport& report = reports[0];
  // Dump actuals in full precision so a deliberate re-golden can copy them
  // from the failure log.
  std::printf("cached_golden = {%a, %a, %lluu, %lluu, %a, %a}\n", report.exec_time_s,
              report.data_load_mb, static_cast<unsigned long long>(report.jobs_completed),
              static_cast<unsigned long long>(report.messages_delivered),
              report.stat("fanout.placements"), report.stat("sim.events_fired"));
  EXPECT_EQ(report.exec_time_s, golden.exec_time_s);
  EXPECT_EQ(report.data_load_mb, golden.data_load_mb);
  EXPECT_EQ(report.jobs_completed, golden.jobs_completed);
  EXPECT_EQ(report.messages_delivered, golden.messages_delivered);
  EXPECT_EQ(report.stat("fanout.placements"), golden.placements);
  EXPECT_EQ(report.stat("sim.events_fired"), golden.events_fired);
}

TEST(ScaleCachedGolden, SingleShardIsBitReproducible) {
  expect_cached_golden(CachedGolden{0x1.39d2dfb506dd7p+7, 0x1.439ca103dc7d3p+14, 60u, 240u,
                                    0x1.ep+5, 0x1.ep+8});
}

// --- fan-out policy parsing ----------------------------------------------

TEST(Fanout, ParseAndDescribeRoundTrip) {
  EXPECT_EQ(sched::FanoutPolicy::parse("full").describe(), "full");
  const sched::FanoutPolicy probe = sched::FanoutPolicy::parse("probe:7");
  EXPECT_TRUE(probe.probing());
  EXPECT_EQ(probe.probe_k, 7u);
  EXPECT_EQ(probe.describe(), "probe:7");
  const sched::FanoutPolicy cached = sched::FanoutPolicy::parse("cached:5");
  EXPECT_TRUE(cached.cached());
  EXPECT_FALSE(cached.probing());
  EXPECT_TRUE(cached.contest_probes());
  EXPECT_EQ(cached.probe_k, 5u);
  EXPECT_EQ(cached.describe(), "cached:5");
  EXPECT_FALSE(sched::FanoutPolicy::parse("full").contest_probes());
  EXPECT_THROW((void)sched::FanoutPolicy::parse("probe:0"), std::invalid_argument);
  EXPECT_THROW((void)sched::FanoutPolicy::parse("cached:0"), std::invalid_argument);
  EXPECT_THROW((void)sched::FanoutPolicy::parse("half"), std::invalid_argument);
}

TEST(Fanout, ErrorsListEveryValidMode) {
  for (const char* bad : {"cached:0", "cached:abc", "probe:x", "banana"}) {
    try {
      (void)sched::FanoutPolicy::parse(bad);
      FAIL() << "expected std::invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("'full'"), std::string::npos) << bad;
      EXPECT_NE(what.find("'probe:K'"), std::string::npos) << bad;
      EXPECT_NE(what.find("'cached:K'"), std::string::npos) << bad;
    }
  }
}

// --- BidSet ---------------------------------------------------------------

TEST(BidSet, DedupesAndPicksLowestCostFirstOnTies) {
  sched::BidSet bids;
  bids.reset(cluster::kNoWorker);
  EXPECT_TRUE(bids.insert(2, 5.0));
  EXPECT_TRUE(bids.insert(0, 3.0));
  EXPECT_FALSE(bids.insert(2, 1.0));  // duplicate bidder is ignored entirely
  EXPECT_TRUE(bids.insert(1, 3.0));   // ties go to the first arrival
  EXPECT_EQ(bids.size(), 3u);
  double cost = 0.0;
  EXPECT_EQ(bids.winner(&cost), 0u);
  EXPECT_EQ(cost, 3.0);
}

TEST(BidSet, ExcludedWorkerWinsOnlyWhenAlone) {
  sched::BidSet bids;
  bids.reset(1);
  EXPECT_TRUE(bids.insert(1, 0.5));
  EXPECT_EQ(bids.winner(), 1u);  // sole bidder: the exclusion is soft
  EXPECT_TRUE(bids.insert(3, 9.0));
  EXPECT_EQ(bids.winner(), 3u);  // any other bidder beats the excluded one
}

TEST(BidSet, SpillsPastInlineCapacity) {
  sched::BidSet bids;
  bids.reset(cluster::kNoWorker);
  // 40 distinct bidders forces the bitmap spill (inline capacity is 16).
  for (cluster::WorkerIndex w = 0; w < 40; ++w) {
    EXPECT_TRUE(bids.insert(w, 100.0 - w));
  }
  EXPECT_EQ(bids.size(), 40u);
  for (cluster::WorkerIndex w = 0; w < 40; ++w) {
    EXPECT_FALSE(bids.insert(w, 0.0));  // dedupe still exact after the spill
  }
  EXPECT_EQ(bids.size(), 40u);
  double cost = 0.0;
  EXPECT_EQ(bids.winner(&cost), 39u);
  EXPECT_EQ(cost, 100.0 - 39);
  bids.reset(cluster::kNoWorker);
  EXPECT_TRUE(bids.empty());
  EXPECT_EQ(bids.winner(), cluster::kNoWorker);
}

// --- broker slab ----------------------------------------------------------

class ScaleBrokerTest : public ::testing::Test {
 protected:
  ScaleBrokerTest() : network_(SeedSequencer(7)), broker_(sim_, network_) {
    net::LinkConfig link;
    link.latency_ms = 5.0;
    link.latency_jitter_ms = 0.0;
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(network_.register_node("n" + std::to_string(i), link));
    }
  }

  sim::Simulator sim_;
  net::NetworkModel network_;
  msg::Broker broker_;
  std::vector<net::NodeId> nodes_;
};

TEST_F(ScaleBrokerTest, UnsubscribeDropsInFlightDeliveries) {
  std::vector<int> received;
  const msg::SubscriptionId sub =
      broker_.subscribe("t", nodes_[1], [&](const msg::Message& m) {
        received.push_back(m.payload.as<int>());
      });
  broker_.publish("t", nodes_[0], 1);
  EXPECT_TRUE(broker_.unsubscribe(sub));  // while the message is in flight
  sim_.run();
  EXPECT_TRUE(received.empty());
}

TEST_F(ScaleBrokerTest, HandlerMayUnsubscribeAnotherSubscriber) {
  std::vector<std::string> log;
  msg::SubscriptionId second{};
  broker_.subscribe("t", nodes_[1], [&](const msg::Message&) {
    log.push_back("first");
    broker_.unsubscribe(second);  // retires a *later* slot mid-delivery
  });
  second = broker_.subscribe("t", nodes_[2], [&](const msg::Message&) {
    log.push_back("second");
  });
  broker_.publish("t", nodes_[0], 1);
  sim_.run();
  // Node 1 is closer in subscription order; once its handler retires the
  // second subscription, the already-in-flight copy must not deliver.
  EXPECT_EQ(log, (std::vector<std::string>{"first"}));

  // The slab slot is recycled safely: a fresh subscriber works.
  broker_.subscribe("t", nodes_[3], [&](const msg::Message&) { log.push_back("third"); });
  broker_.publish("t", nodes_[0], 2);
  sim_.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "first", "third"}));
}

TEST_F(ScaleBrokerTest, HandlerMaySelfUnsubscribe) {
  int calls = 0;
  msg::SubscriptionId self{};
  self = broker_.subscribe("t", nodes_[1], [&](const msg::Message&) {
    ++calls;
    broker_.unsubscribe(self);
  });
  broker_.publish("t", nodes_[0], 1);
  broker_.publish("t", nodes_[0], 2);
  sim_.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(broker_.publish("t", nodes_[0], 3), 0u);
}

TEST_F(ScaleBrokerTest, PublishToDeliversOnlyToTargets) {
  std::vector<int> hits(4, 0);
  const msg::TopicId topic = broker_.topic("t");
  for (int i = 1; i < 4; ++i) {
    broker_.subscribe(topic, nodes_[static_cast<std::size_t>(i)],
                      [&hits, i](const msg::Message&) { ++hits[static_cast<std::size_t>(i)]; });
  }
  const net::NodeId targets[] = {nodes_[1], nodes_[3]};
  EXPECT_EQ(broker_.publish_to(topic, nodes_[0], 9, targets), 2u);
  sim_.run();
  EXPECT_EQ(hits, (std::vector<int>{0, 1, 0, 1}));
}

TEST_F(ScaleBrokerTest, CoalescingConservesDeliveriesAndOrder) {
  for (const bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalescing on" : "coalescing off");
    sim::Simulator sim;
    net::NetworkModel network{SeedSequencer(7)};
    net::LinkConfig link;
    link.latency_ms = 5.0;
    link.latency_jitter_ms = 0.0;
    const net::NodeId src = network.register_node("src", link);
    const net::NodeId dst = network.register_node("dst", link);
    msg::Broker broker(sim, network);
    broker.set_coalescing(coalesce);

    std::vector<int> received;
    broker.register_mailbox(dst, "box", [&](const msg::Message& m) {
      received.push_back(m.payload.as<int>());
    });
    // Same-tick burst: zero jitter means every copy lands on one tick.
    for (int i = 0; i < 8; ++i) broker.send(src, dst, "box", i);
    sim.run();

    EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(broker.stats().delivered, 8u);
    if (coalesce) {
      EXPECT_GE(broker.stats().batched, 7u);  // the burst rode shared events
      EXPECT_GE(broker.stats().batches, 1u);
    } else {
      EXPECT_EQ(broker.stats().batches, 0u);
    }
  }
}

// --- scenarios ------------------------------------------------------------

TEST(Scenario, JsonRoundTripIsStable) {
  core::ExperimentSpec spec;
  spec.name = "cell";
  spec.scheduler = "bidding:fanout=probe:4";
  spec.job_config = workload::JobConfig::k80Large;
  workload::WorkloadSpec w = workload::make_workload_spec(spec.job_config);
  w.job_count = 77;
  spec.custom_workload = w;
  spec.fleet = cluster::FleetPreset::kFastSlow;
  spec.worker_count = 50;
  spec.iterations = 2;
  spec.seed = 99;
  spec.noise = net::NoiseConfig::lognormal(0.25);
  spec.faults = fault::FaultPlan::parse("crash:w=1,at=15,down=30;drop:p=0.01");
  spec.lifecycle.max_attempts = 3;
  spec.coalesce_deliveries = true;

  const std::string dumped = spec.to_json().dump(2);
  const core::ExperimentSpec back = core::ExperimentSpec::from_json(json::parse(dumped));
  EXPECT_EQ(back.to_json().dump(2), dumped);
  EXPECT_EQ(back.name, "cell");
  EXPECT_EQ(back.scheduler, "bidding:fanout=probe:4");
  EXPECT_EQ(back.worker_count, 50u);
  ASSERT_TRUE(back.custom_workload.has_value());
  EXPECT_EQ(back.custom_workload->job_count, 77u);
  EXPECT_EQ(back.noise.spec(), "lognormal:0.25");
  EXPECT_EQ(back.faults.spec(), "crash:w=1,at=15,down=30;drop:p=0.01");
  EXPECT_EQ(back.lifecycle.max_attempts, 3u);
  EXPECT_TRUE(back.coalesce_deliveries);
}

TEST(Scenario, UnknownKeysAndBadValuesAreErrors) {
  EXPECT_THROW((void)core::ExperimentSpec::from_json(json::parse(R"({"wobble": 1})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExperimentSpec::from_json(json::parse(R"({"workers": -3})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExperimentSpec::from_json(json::parse(R"({"noise": "heavy"})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExperimentSpec::from_json(json::parse(R"([1, 2])")),
               std::invalid_argument);
}

TEST(Scenario, ValidateFindsStructuralProblems) {
  core::ExperimentSpec spec;
  EXPECT_TRUE(spec.validate().empty());

  spec.worker_count = 0;
  spec.iterations = 0;
  auto issues = spec.validate();
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].field, "workers");
  EXPECT_EQ(issues[1].field, "iterations");

  spec = core::ExperimentSpec{};
  spec.scheduler = "bidding:fanout=probe:9";
  spec.worker_count = 5;
  issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "scheduler");
  EXPECT_NE(issues[0].message.find("exceeds the fleet"), std::string::npos);
  spec.worker_count = 9;
  EXPECT_TRUE(spec.validate().empty());

  spec = core::ExperimentSpec{};
  spec.faults = fault::FaultPlan::parse("crash:w=7,at=5");
  issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "faults");

  spec = core::ExperimentSpec{};
  spec.faults = fault::FaultPlan::parse("drop:p=0.1");
  spec.lifecycle.max_attempts = 0;
  issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "lifecycle");
}

// --- factory registry -----------------------------------------------------

TEST(Factory, ParsesConfigStrings) {
  EXPECT_EQ(sched::make_scheduler("bidding:fanout=probe:4")->name(), "bidding+probe:4");
  EXPECT_EQ(sched::make_scheduler("bidding:learn=true")->name(), "bidding+learned");
  EXPECT_EQ(sched::make_scheduler("bidding+learned:fanout=probe:2")->name(),
            "bidding+learned+probe:2");
  EXPECT_EQ(sched::make_scheduler("baseline:declines=2,requeue_back=true")->name(), "baseline");
  for (const std::string& name : sched::scheduler_names()) {
    EXPECT_NE(sched::make_scheduler(name), nullptr);
  }
}

TEST(Factory, UnknownKeysListTheValidOnes) {
  try {
    (void)sched::make_scheduler("bidding:widnow=2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown key 'widnow'"), std::string::npos);
    EXPECT_NE(what.find("fanout, window, serialize, learn, alpha, slack"), std::string::npos);
  }
  EXPECT_THROW((void)sched::make_scheduler("matchmaking:x=1"), std::invalid_argument);
  EXPECT_THROW((void)sched::make_scheduler("bidding:fanout=probe:0"), std::invalid_argument);
  EXPECT_THROW((void)sched::make_scheduler("bidding:fanout=cached:0"), std::invalid_argument);
  EXPECT_THROW((void)sched::make_scheduler("bidding:fanout=cached:abc"), std::invalid_argument);
  EXPECT_THROW((void)sched::make_scheduler("bidding:slack=fast"), std::invalid_argument);
  EXPECT_THROW((void)sched::make_scheduler("bidding:window"), std::invalid_argument);
  EXPECT_THROW((void)sched::make_scheduler("nonesuch"), std::invalid_argument);
}

TEST(Factory, CheckSchedulerSpecReportsWithoutThrowing) {
  EXPECT_EQ(sched::check_scheduler_spec("bidding:fanout=probe:4", 50), "");
  EXPECT_NE(sched::check_scheduler_spec("bidding:fanout=probe:400", 50), "");
  EXPECT_NE(sched::check_scheduler_spec("bidding:bogus=1", 5), "");
  EXPECT_NE(sched::check_scheduler_spec("nonesuch", 5), "");
  EXPECT_EQ(sched::check_scheduler_spec("bidding:fanout=cached:4", 50), "");
  EXPECT_EQ(sched::check_scheduler_spec("bidding:fanout=cached:50", 50), "");
  const std::string too_big = sched::check_scheduler_spec("bidding:fanout=cached:51", 50);
  EXPECT_NE(too_big.find("cached fan-out k=51"), std::string::npos);
  EXPECT_NE(too_big.find("exceeds the fleet"), std::string::npos);
  // Malformed cached specs report the full mode list without throwing.
  const std::string bad_k = sched::check_scheduler_spec("bidding:fanout=cached:0", 50);
  EXPECT_NE(bad_k.find("'full'"), std::string::npos);
  EXPECT_NE(bad_k.find("'probe:K'"), std::string::npos);
  EXPECT_NE(bad_k.find("'cached:K'"), std::string::npos);
  EXPECT_NE(sched::check_scheduler_spec("bidding:fanout=cached:abc", 50), "");
}

}  // namespace
}  // namespace dlaja
