// Tests for the large-fleet scale path: fan-out policies, the master's
// live-worker index and k-subset sampler, the worker's backlog walk against
// a linear-scan oracle, the BidSet, the broker's subscriber slab, scenario
// round-trips, and the factory's config-string registry.
//
// The golden cells pin the `fanout=full` path bit-exactly (hexfloat
// doubles, exact integer counters): full fan-out is the paper-faithful
// protocol and must stay bit-identical across refactors of the broker or
// the contest machinery. Two more pin the probe:k and cached:k samplers
// under crashes and recoveries, and two the deep-queue regime, where
// backlog estimates replay queues of 100+ jobs. Regenerate only for a
// deliberate semantic change.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/worker.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "msg/broker.hpp"
#include "sched/bid_set.hpp"
#include "sched/fanout.hpp"
#include "sched/live_workers.hpp"
#include "sched/simple.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "workload/arrivals.hpp"

namespace dlaja {

namespace cluster {

/// backlog_cost_s as it stood before the stamped membership set and the
/// dense fold that replaced it, kept verbatim as the reference: the
/// assumed-local set is a vector searched linearly, so a walk costs
/// O(queue x distinct resources).
struct BacklogOracle {
  static double backlog_cost_s(const WorkerNode& worker) {
    double total = 0.0;
    std::vector<storage::ResourceId> assumed_local;
    const auto assumed = [&assumed_local](storage::ResourceId r) {
      return std::find(assumed_local.begin(), assumed_local.end(), r) != assumed_local.end();
    };
    for (const auto& slot : worker.slots_) {
      if (slot == nullptr) continue;
      const Tick remaining = slot->est_finish - worker.sim_.now();
      if (remaining > 0) total += seconds_from_ticks(remaining);
      if (slot->job.needs_resource() && !assumed(slot->job.resource)) {
        assumed_local.push_back(slot->job.resource);
      }
    }
    const double net_speed = std::max(worker.net_est_.estimate(), 1e-9);
    const double rw_speed = std::max(worker.rw_est_.estimate(), 1e-9);
    for (const WorkerNode::QueuedCost& job : worker.queue_costs_) {
      if (job.resource != 0) {
        if (!assumed(job.resource)) {
          if (!worker.cache_.contains(job.resource)) {
            total += job.resource_size_mb / net_speed;
          }
          assumed_local.push_back(job.resource);
        }
      }
      total += job.process_mb / rw_speed + seconds_from_ticks(job.fixed_cost);
    }
    return total;
  }

  /// True when the worker's next enqueue finds the terms stale (priced under
  /// another cache membership or speed, or already marked), so it marks them
  /// stale instead of pricing the new job.
  static bool terms_stale(const WorkerNode& worker) {
    return worker.price_key() != worker.priced_;
  }
};

}  // namespace cluster

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
  core::Engine engine(fleet, sched::SchedulerSpec("bidding:fanout=cached:4").build(1), config);
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

// --- sampler goldens under faults -------------------------------------------
//
// Recorded before the master read its live workers from an epoch-stamped
// index: the probe:k contest sampler and cached mode's exact-scan fallback
// must draw the same workers in the same order, so these cells must not
// move. The fault counters prove the crash and recovery paths ran.

struct FaultGolden {
  GoldenRow row;
  std::uint64_t jobs_completed;
  std::uint64_t jobs_dead_lettered;
  double crashes;
  double recoveries;
  double retries;
};

void expect_fault_golden(const core::ExperimentSpec& spec, const FaultGolden& golden) {
  const auto reports = core::run_experiment(spec);
  ASSERT_EQ(reports.size(), 1u);
  const metrics::RunReport& r = reports[0];
  // Dump actuals in full precision so a deliberate re-golden can copy them
  // from the failure log.
  std::printf(
      "fault_golden = {{%a, %llu, %a, %llu, %a, %a, %a, %a}, %lluu, %lluu, %a, %a, %a}\n",
      r.exec_time_s, static_cast<unsigned long long>(r.cache_misses), r.data_load_mb,
      static_cast<unsigned long long>(r.messages_delivered), r.stat("sim.events_fired"),
      r.stat("sim.events_scheduled"), r.stat("msg.delivered"), r.stat("sched.contests"),
      static_cast<unsigned long long>(r.jobs_completed),
      static_cast<unsigned long long>(r.jobs_dead_lettered), r.stat("fault.crashes"),
      r.stat("fault.recoveries"), r.stat("fault.retries"));
  expect_rows(reports, {golden.row});
  EXPECT_EQ(r.jobs_completed, golden.jobs_completed);
  EXPECT_EQ(r.jobs_dead_lettered, golden.jobs_dead_lettered);
  EXPECT_EQ(r.jobs_lost, 0u);
  EXPECT_EQ(r.stat("fault.crashes"), golden.crashes);
  EXPECT_EQ(r.stat("fault.recoveries"), golden.recoveries);
  EXPECT_EQ(r.stat("fault.retries"), golden.retries);
}

TEST(ScaleGolden, ProbeUnderCrashAndRecoveryIsBitIdentical) {
  core::ExperimentSpec spec = probe_cell("bidding:fanout=probe:3");
  spec.faults = fault::FaultPlan::parse("crashes:p=0.5,window=60,down=20");
  expect_fault_golden(spec, FaultGolden{{0x1.4c039e492bc3p+7, 60, 0x1.439ca103dc7d5p+14, 508,
                                         0x1.cfp+9, 0x1.08p+10, 0x1.fcp+8, 0x1p+6},
                                        60u, 0u, 0x1.3p+4, 0x1.3p+4, 0x1p+2});
}

TEST(ScaleGolden, CachedExactScanFallbackIsBitIdentical) {
  // 37 of 40 workers down, most of them for the rest of the run: with 4-7
  // workers alive, place_cached's bounded rejection draws often miss, and
  // 21 of its 64 placements take the exact-scan fallback (counted at the
  // recording commit).
  core::ExperimentSpec spec = cached_cell("bidding:fanout=cached:4");
  spec.faults = fault::FaultPlan::parse("crashes:p=0.95,window=20,down=2000");
  expect_fault_golden(spec, FaultGolden{{0x1.92c3aeee95747p+7, 60, 0x1.439ca103dc7d5p+14, 257,
                                         0x1.238p+9, 0x1.46p+9, 0x1.01p+8, 0x1p+0},
                                        60u, 0u, 0x1.28p+5, 0x1.28p+5, 0x1p+2});
}

// --- deep-queue goldens -----------------------------------------------------
//
// Recorded before backlog_cost_s answered "already local?" from a stamped
// membership set: an open stream offered above the capacity of a mixed
// 4-worker fleet (two 2-slot workers, two with a 1,200 MB LRU cache, far
// below the 64-repository pool), so every queue passes 100 jobs and the LRU
// caches evict resources that queued jobs still need (counted at the
// recording commit). The capacity stays above the largest resource
// (1,024 MB), so no cache ever holds a lone oversize clone. No other golden
// queues more than a few jobs per worker, so these are the cells where the
// backlog walk's membership answers decide bids and placements.

std::vector<cluster::WorkerConfig> deep_queue_fleet() {
  std::vector<cluster::WorkerConfig> fleet = testutil::uniform_fleet(4);
  fleet[0].slots = 2;
  fleet[1].slots = 2;
  for (const std::size_t w : {2u, 3u}) {
    fleet[w].cache.policy = storage::EvictionPolicy::kLru;
    fleet[w].cache.capacity_mb = 1200.0;
  }
  return fleet;
}

struct DeepQueueGolden {
  double exec_time_s;
  double data_load_mb;
  std::uint64_t cache_misses;
  double avg_turnaround_s;
  std::uint64_t messages_delivered;
  double events_fired;
};

void expect_deep_queue_golden(const std::string& scheduler, const DeepQueueGolden& golden) {
  workload::OpenArrivalSpec arrivals;
  arrivals.rate_per_s = 6.0;
  arrivals.duration_s = 400.0;
  arrivals.repo_pool = 64;
  arrivals.popularity_skew = 2.0;
  workload::OpenArrivalStream stream(
      workload::make_workload_spec(workload::JobConfig::kAllDiffSmall), arrivals,
      SeedSequencer(2024));
  core::EngineConfig config;
  config.seed = 17;
  config.telemetry.interval = ticks_from_seconds(10.0);
  core::Engine engine(deep_queue_fleet(), sched::SchedulerSpec(scheduler).build(1), config);
  for (cluster::WorkerIndex w = 0; w < engine.worker_count(); ++w) {
    const cluster::WorkerNode* node = &engine.worker(w);
    engine.probes().add_gauge("test.queued." + std::to_string(w), 0, [node] {
      return static_cast<double>(node->queue_length());
    });
  }
  const metrics::RunReport r = engine.run_stream([&stream] { return stream.next(); });
  // Dump actuals in full precision so a deliberate re-golden can copy them
  // from the failure log.
  std::printf("deep_queue_golden = {%a, %a, %lluu, %a, %lluu, %a}\n", r.exec_time_s,
              r.data_load_mb, static_cast<unsigned long long>(r.cache_misses),
              r.avg_turnaround_s, static_cast<unsigned long long>(r.messages_delivered),
              r.stat("sim.events_fired"));
  EXPECT_EQ(r.jobs_completed, stream.emitted());
  EXPECT_EQ(r.jobs_lost, 0u);
  EXPECT_EQ(r.exec_time_s, golden.exec_time_s);
  EXPECT_EQ(r.data_load_mb, golden.data_load_mb);
  EXPECT_EQ(r.cache_misses, golden.cache_misses);
  EXPECT_EQ(r.avg_turnaround_s, golden.avg_turnaround_s);
  EXPECT_EQ(r.messages_delivered, golden.messages_delivered);
  EXPECT_EQ(r.stat("sim.events_fired"), golden.events_fired);

  // The regime the cell exists for: every worker's queue passed 100 jobs.
  ASSERT_TRUE(engine.telemetry().has_value());
  const obs::TelemetryTable& table = *engine.telemetry();
  for (cluster::WorkerIndex w = 0; w < engine.worker_count(); ++w) {
    const auto name = std::find(table.names.begin(), table.names.end(),
                                "test.queued." + std::to_string(w));
    ASSERT_NE(name, table.names.end());
    const std::vector<double>& series =
        table.values[static_cast<std::size_t>(name - table.names.begin())];
    EXPECT_GE(*std::max_element(series.begin(), series.end()), 100.0) << "worker " << w;
  }
}

TEST(DeepQueueGolden, CachedFanoutIsBitIdentical) {
  expect_deep_queue_golden("bidding:fanout=cached:4",
                           DeepQueueGolden{0x1.ab251b93037d6p+9, 0x1.4dd57801d0e12p+15, 447u,
                                           0x1.5fbf3d2662de4p+7, 9659u, 0x1.0dfp+14});
}

TEST(DeepQueueGolden, FullFanoutIsBitIdentical) {
  expect_deep_queue_golden("bidding",
                           DeepQueueGolden{0x1.9d910d62bf12p+9, 0x1.3f3fdea2533fdp+15, 379u,
                                           0x1.239f0ab1cc14bp+7, 23540u, 0x1.2936p+15});
}

// --- backlog walk against the linear-scan oracle ----------------------------

/// One worker on its own simulator and noisy network, driven step by step.
class OracleWorker {
 public:
  OracleWorker(const cluster::WorkerConfig& config, cluster::SpeedEstimator::Mode mode,
               std::uint64_t seed)
      : seeds_(seed), network_(seeds_, net::NoiseConfig::lognormal(0.3)), metrics_(1) {
    net::LinkConfig link;
    link.bandwidth_mbps = config.network_mbps;
    node_ = network_.register_node(config.name, link);
    worker_ = std::make_unique<cluster::WorkerNode>(0, config, sim_, network_, node_, metrics_,
                                                    seeds_, mode);
  }

  [[nodiscard]] cluster::WorkerNode& worker() noexcept { return *worker_; }
  void advance(double seconds) { sim_.run(sim_.now() + ticks_from_seconds(seconds)); }

  /// backlog_cost_s() equals the oracle's walk bit for bit.
  [[nodiscard]] ::testing::AssertionResult matches_oracle() const {
    return same_as_oracle("backlog", worker_->backlog_cost_s());
  }

  /// Enqueues `job` through enqueue_and_backlog, continuing a fresh walk:
  /// the backlog it returns equals the oracle's walk afterwards bit for bit.
  [[nodiscard]] ::testing::AssertionResult enqueue_matches_oracle(const workflow::Job& job) {
    const double before = worker_->backlog_cost_s();
    return same_as_oracle("continued backlog", worker_->enqueue_and_backlog(job, before));
  }

 private:
  [[nodiscard]] ::testing::AssertionResult same_as_oracle(const char* what,
                                                          double backlog) const {
    const double oracle = cluster::BacklogOracle::backlog_cost_s(*worker_);
    if (std::bit_cast<std::uint64_t>(backlog) == std::bit_cast<std::uint64_t>(oracle)) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << std::hexfloat << what << " " << backlog << " != oracle " << oracle << " with "
           << worker_->queue_length() << " queued at tick " << sim_.now();
  }

  SeedSequencer seeds_;
  sim::Simulator sim_;
  net::NetworkModel network_;
  metrics::MetricsCollector metrics_;
  net::NodeId node_{};
  std::unique_ptr<cluster::WorkerNode> worker_;
};

/// A resource has one size wherever it appears, as in a catalog.
MegaBytes oracle_size(storage::ResourceId resource) {
  return 1.0 + static_cast<double>((resource * 2654435761u) % 400);
}

/// A job on `resource` (0: none).
workflow::Job oracle_job(workflow::JobId id, storage::ResourceId resource, RandomStream& rng) {
  workflow::Job job;
  job.id = id;
  job.resource = resource;
  if (resource != 0) {
    job.resource_size_mb = oracle_size(resource);
    job.process_mb = job.resource_size_mb;
  } else {
    job.process_mb = rng.uniform(1.0, 200.0);
  }
  job.fixed_cost = ticks_from_millis(rng.uniform(0.0, 300.0));
  return job;
}

TEST(BacklogOracle, MatchesTheLinearScanOnRandomHistories) {
  // 1-3 slots x unbounded or small LRU cache x nominal or historic speeds,
  // through seeded histories of enqueue bursts (Zipf-repeated, distinct and
  // resource-free jobs), simulated time, direct cache admissions and
  // evictions, speed probes, crashes and revivals. Most enqueues go through
  // enqueue_and_backlog, whose answer is checked; the rest through plain
  // enqueue, as the schedulers other than bidding's placements do. Most
  // steps end with a check of the walk. A quarter run unchecked: their
  // bursts admit a resource or probe the speeds, enqueue through plain
  // enqueue with no walk in between, and advance time, so admissions,
  // speed observations, enqueues and releases of several steps can pile
  // up and meet stale terms before the next comparison.
  std::uint64_t evictions = 0;
  std::uint64_t revivals = 0;
  std::uint64_t speed_observations = 0;
  std::uint64_t started_at_once = 0;
  std::uint64_t continued = 0;
  std::uint64_t plain_enqueues = 0;
  std::uint64_t stale_enqueues = 0;
  std::uint64_t direct_admits = 0;
  std::uint64_t direct_evictions = 0;
  std::size_t deepest = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    cluster::WorkerConfig config = testutil::uniform_fleet(1)[0];
    config.slots = static_cast<std::uint32_t>(1 + seed % 3);
    if (seed % 2 == 0) {
      config.cache.policy = storage::EvictionPolicy::kLru;
      config.cache.capacity_mb = 600.0;  // a few resources of the hot pool
    }
    const auto mode = (seed / 2) % 2 == 1 ? cluster::SpeedEstimator::Mode::kHistoric
                                          : cluster::SpeedEstimator::Mode::kNominal;
    OracleWorker w(config, mode, seed);
    cluster::WorkerNode& worker = w.worker();
    RandomStream rng(seed);
    workflow::JobId next_id = 1;
    storage::ResourceId next_distinct = 1000;
    for (int step = 0; step < 600; ++step) {
      const bool checked = rng.uniform() >= 0.25;
      const double roll = rng.uniform();
      if (worker.failed()) {
        if (roll < 0.2) {
          (void)worker.set_failed(false);
          ++revivals;
        } else {
          w.advance(rng.exponential(3.0));
        }
      } else if (roll < 0.45 && worker.queue_length() < 400) {
        if (!checked) {
          if (rng.bernoulli(0.5)) {
            const auto resource = static_cast<storage::ResourceId>(rng.uniform_int(1, 24));
            worker.cache().admit(storage::Resource{resource, oracle_size(resource)});
            ++direct_admits;
          } else {
            worker.probe_speeds();
          }
        }
        const auto burst = rng.uniform_int(1, 24);
        for (std::int64_t i = 0; i < burst; ++i) {
          const double kind = rng.uniform();
          storage::ResourceId resource = 0;
          if (kind >= 0.15 && kind < 0.75) {
            // Zipf-like over a hot pool of 24: low ids dominate.
            resource = 1 + static_cast<storage::ResourceId>(24 * std::pow(rng.uniform(), 2.5));
          } else if (kind >= 0.75) {
            resource = next_distinct++;
          }
          const workflow::Job job = oracle_job(next_id++, resource, rng);
          if (!checked || rng.bernoulli(0.25)) {
            stale_enqueues += cluster::BacklogOracle::terms_stale(worker) ? 1 : 0;
            worker.enqueue(job);
            ++plain_enqueues;
          } else {
            const std::size_t queued = worker.queue_length();
            ASSERT_TRUE(w.enqueue_matches_oracle(job)) << "step " << step << ", burst job " << i;
            ++(worker.queue_length() == queued ? started_at_once : continued);
          }
          if (checked) {
            ASSERT_TRUE(w.matches_oracle()) << "step " << step << ", burst job " << i;
          }
        }
        if (!checked) w.advance(rng.exponential(3.0));
      } else if (roll < 0.9) {
        w.advance(rng.exponential(3.0));
      } else if (roll < 0.94) {
        const auto resource = static_cast<storage::ResourceId>(rng.uniform_int(1, 24));
        worker.cache().admit(storage::Resource{resource, oracle_size(resource)});
        ++direct_admits;
      } else if (roll < 0.95) {
        const auto resource = static_cast<storage::ResourceId>(rng.uniform_int(1, 24));
        direct_evictions += worker.cache().evict(resource) ? 1 : 0;
      } else if (roll < 0.98) {
        worker.probe_speeds();
      } else {
        (void)worker.set_failed(true);
      }
      deepest = std::max(deepest, worker.queue_length());
      if (checked) {
        ASSERT_TRUE(w.matches_oracle()) << "step " << step;
      }
    }
    ASSERT_TRUE(w.matches_oracle()) << "end of history";
    evictions += worker.cache().stats().evictions;
    speed_observations += worker.rw_estimator().observations();
  }
  // The histories reached the paths they exist for.
  EXPECT_GT(evictions, 100u);
  EXPECT_GT(revivals, 5u);
  EXPECT_GT(speed_observations, 1000u);
  EXPECT_GT(started_at_once, 50u);
  EXPECT_GT(continued, 10000u);
  EXPECT_GT(plain_enqueues, 5000u);
  EXPECT_GT(stale_enqueues, 1000u);
  EXPECT_GT(direct_admits, 100u);
  EXPECT_GT(direct_evictions, 10u);
  EXPECT_GE(deepest, 100u);
}

TEST(BacklogOracle, AThousandDistinctResourcesGrowTheSetMidWalk) {
  // One walk over 1,200 distinct resources, first without and then with a
  // queued repeat of each.
  OracleWorker w(testutil::uniform_fleet(1)[0], cluster::SpeedEstimator::Mode::kNominal, 5);
  cluster::WorkerNode& worker = w.worker();
  RandomStream rng(5);
  ASSERT_TRUE(w.matches_oracle());
  worker.enqueue(oracle_job(1, 0, rng));
  ASSERT_TRUE(w.matches_oracle());

  // 1,200 distinct resources, every third already cached, each followed by
  // a job on an earlier one.
  constexpr storage::ResourceId kDistinct = 1200;
  workflow::JobId id = 2;
  for (storage::ResourceId r = 1; r <= kDistinct; ++r) {
    worker.enqueue(oracle_job(id++, r, rng));
    worker.enqueue(oracle_job(id++, r / 2 + 1, rng));
    if (r % 3 == 0) worker.cache().admit(storage::Resource{r, oracle_size(r)});
  }
  ASSERT_TRUE(w.matches_oracle());

  // The same resources again, in reverse: none of them pays a transfer.
  for (storage::ResourceId r = kDistinct; r >= 1; --r) {
    worker.enqueue(oracle_job(id++, r, rng));
  }
  ASSERT_TRUE(w.matches_oracle());

  // Drain part of the queue, checking the walk at each stop.
  for (int stop = 0; stop < 20; ++stop) {
    w.advance(60.0);
    ASSERT_TRUE(w.matches_oracle()) << "stop " << stop;
  }
  EXPECT_LT(worker.queue_length(), 3 * kDistinct);
}

TEST(BacklogOracle, ASlotThatStillHoldsTheResourceKeepsQueuedJobsFromPayingIt) {
  // Two slots run jobs on resource 7, which is then evicted. When the short
  // one finishes, the other slot still holds 7, so the queued job on it
  // stays free of its transfer; when the long one finishes too, that job
  // is the first to need 7 and pays for it.
  cluster::WorkerConfig config = testutil::uniform_fleet(1)[0];
  config.slots = 2;
  OracleWorker w(config, cluster::SpeedEstimator::Mode::kNominal, 3);
  cluster::WorkerNode& worker = w.worker();
  const auto job = [](workflow::JobId id, storage::ResourceId resource, double fixed_s) {
    workflow::Job j;
    j.id = id;
    j.resource = resource;
    j.resource_size_mb = oracle_size(resource);
    j.process_mb = 1.0;
    j.fixed_cost = ticks_from_seconds(fixed_s);
    return j;
  };
  worker.cache().admit(storage::Resource{7, oracle_size(7)});
  worker.enqueue(job(1, 7, 1.0));    // slot 0, a hit
  worker.enqueue(job(2, 7, 100.0));  // slot 1, a hit
  ASSERT_TRUE(worker.cache().evict(7));
  worker.enqueue(job(3, 8, 100.0));  // queued; takes slot 0 next
  worker.enqueue(job(4, 9, 100.0));  // queued; takes slot 1 next
  worker.enqueue(job(5, 7, 1.0));    // queued behind both
  ASSERT_TRUE(w.matches_oracle());

  // 7 stays uncached throughout, so a queued job wrongly taken to be its
  // first would add its transfer and part from the oracle.
  w.advance(10.0);  // job 1 done, job 3 running, job 2 still holds 7
  ASSERT_EQ(worker.queue_length(), 2u);
  ASSERT_EQ(worker.busy_slots(), 2u);
  ASSERT_TRUE(w.matches_oracle());

  w.advance(90.5);  // job 2 done, job 4 running, job 3 not yet done
  ASSERT_EQ(worker.queue_length(), 1u);
  ASSERT_EQ(worker.busy_slots(), 2u);
  EXPECT_FALSE(worker.cache().contains(7));
  EXPECT_TRUE(w.matches_oracle());
}

TEST(BacklogOracle, TermsPricedUnderAPassingSpeedAreRepricedWhenItReturns) {
  // The rw estimate leaves 100 MB/s, a job is enqueued while the terms are
  // stale, and the estimate comes back to exactly 100 MB/s: the walk must
  // not take the terms priced at 100 MB/s as current for that job.
  OracleWorker w(testutil::uniform_fleet(1)[0], cluster::SpeedEstimator::Mode::kHistoric, 9);
  cluster::WorkerNode& worker = w.worker();
  RandomStream rng(9);
  workflow::Job running = oracle_job(1, 0, rng);
  running.fixed_cost = ticks_from_seconds(1000.0);
  worker.enqueue(running);
  worker.enqueue(oracle_job(2, 3, rng));
  ASSERT_TRUE(w.matches_oracle());  // priced at the nominal 100 MB/s
  worker.rw_estimator().observe(50.0);
  worker.enqueue(oracle_job(3, 4, rng));
  worker.rw_estimator().observe(150.0);
  ASSERT_EQ(worker.rw_estimator().estimate(), 100.0);
  EXPECT_TRUE(w.matches_oracle());
}

// --- backlog work counters ---------------------------------------------------

TEST(BacklogComplexity, CacheHitPlacementsOnASaturatedWorkerRepriceNothing) {
  // One slot, nominal speeds, an unbounded cache holding every resource:
  // 1,000 placements queue behind a busy slot while jobs keep finishing.
  // Nothing the terms depend on moves, so no walk re-prices, and each
  // post-enqueue backlog is one O(1) step of the fold.
  OracleWorker w(testutil::uniform_fleet(1)[0], cluster::SpeedEstimator::Mode::kNominal, 11);
  cluster::WorkerNode& worker = w.worker();
  RandomStream rng(11);
  for (storage::ResourceId r = 1; r <= 24; ++r) {
    worker.cache().admit(storage::Resource{r, oracle_size(r)});
  }
  workflow::JobId id = 1;
  worker.enqueue(oracle_job(id++, 1, rng));
  ASSERT_EQ(worker.busy_slots(), 1u);
  ASSERT_TRUE(w.matches_oracle());
  const std::uint64_t reprices = worker.backlog_reprices();
  const std::uint64_t hits = worker.cache().stats().hits;
  for (int placement = 0; placement < 1000; ++placement) {
    const auto resource = static_cast<storage::ResourceId>(rng.uniform_int(1, 24));
    const double before = worker.backlog_cost_s();
    const std::uint64_t steps = worker.backlog_fold_steps();
    ASSERT_EQ(worker.busy_slots(), 1u) << "placement " << placement;
    const double after = worker.enqueue_and_backlog(oracle_job(id++, resource, rng), before);
    ASSERT_EQ(worker.backlog_fold_steps(), steps) << "placement " << placement;
    ASSERT_TRUE(w.matches_oracle()) << "placement " << placement;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(after),
              std::bit_cast<std::uint64_t>(worker.backlog_cost_s()));
    w.advance(0.5);  // a job takes about 2 s, so the queue keeps growing
  }
  EXPECT_GT(worker.cache().stats().hits - hits, 100u);  // jobs did finish
  EXPECT_EQ(worker.cache().stats().misses, 0u);
  EXPECT_EQ(worker.backlog_reprices(), reprices);
}

TEST(BacklogComplexity, AnAdmissionOrASpeedObservationCostsOneReprice) {
  OracleWorker w(testutil::uniform_fleet(1)[0], cluster::SpeedEstimator::Mode::kHistoric, 13);
  cluster::WorkerNode& worker = w.worker();
  RandomStream rng(13);
  for (workflow::JobId id = 1; id <= 50; ++id) {
    worker.enqueue(oracle_job(id, 1 + id % 10, rng));
  }
  ASSERT_EQ(worker.queue_length(), 49u);
  ASSERT_TRUE(w.matches_oracle());
  const auto reprices_after = [&worker](const auto& change) {
    const std::uint64_t before = worker.backlog_reprices();
    change();
    const std::uint64_t steps = worker.backlog_fold_steps();
    (void)worker.backlog_cost_s();
    EXPECT_EQ(worker.backlog_fold_steps() - steps, worker.queue_length());
    (void)worker.backlog_cost_s();
    return worker.backlog_reprices() - before;
  };
  EXPECT_EQ(reprices_after([] {}), 0u);
  EXPECT_EQ(reprices_after([&worker] {
              worker.cache().admit(storage::Resource{3, oracle_size(3)});
            }),
            1u);
  EXPECT_EQ(reprices_after([&worker] {
              worker.cache().admit(storage::Resource{3, oracle_size(3)});  // resident
            }),
            0u);
  EXPECT_EQ(reprices_after([&worker] { worker.network_estimator().observe(20.0); }), 1u);
  EXPECT_EQ(reprices_after([&worker] { worker.rw_estimator().observe(80.0); }), 1u);
  EXPECT_TRUE(w.matches_oracle());
}

// --- live-worker index and k-subset sampler ---------------------------------

// The probe sampler as it was before the live-worker index, kept as the
// reference: walk the fleet for live workers in ascending order, then run a
// partial Fisher-Yates in place on that copy.
std::vector<cluster::WorkerIndex> reference_draw(const std::vector<bool>& alive,
                                                 std::uint32_t k, RandomStream& rng) {
  std::vector<cluster::WorkerIndex> scratch;
  for (cluster::WorkerIndex w = 0; w < alive.size(); ++w) {
    if (alive[w]) scratch.push_back(w);
  }
  const auto count = static_cast<std::uint32_t>(std::min<std::size_t>(k, scratch.size()));
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<std::uint32_t>(rng.uniform_int(
                           0, static_cast<std::uint64_t>(scratch.size() - 1 - i)));
    std::swap(scratch[i], scratch[j]);
  }
  scratch.resize(count);
  return scratch;
}

TEST(SubsetSampler, MatchesInPlaceFisherYatesOracle) {
  // Lockstep over pool sizes 1-300, every k up to one past the pool, three
  // fleet layouts (900 RNG streams): the same picks in the same order, and
  // the same RNG state after every call.
  sched::SubsetSampler sampler;
  std::vector<cluster::WorkerIndex> picks;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomStream layout(seed);
    for (std::size_t n = 1; n <= 300; ++n) {
      // n live workers scattered over a fleet of up to 2n.
      const std::size_t fleet = n + static_cast<std::size_t>(
                                        layout.uniform_int(0, static_cast<std::int64_t>(n)));
      std::vector<bool> alive(fleet, true);
      for (std::size_t dead = 0; dead < fleet - n;) {
        const auto w = static_cast<std::size_t>(
            layout.uniform_int(0, static_cast<std::int64_t>(fleet) - 1));
        if (alive[w]) {
          alive[w] = false;
          ++dead;
        }
      }
      std::vector<cluster::WorkerIndex> pool;
      for (cluster::WorkerIndex w = 0; w < fleet; ++w) {
        if (alive[w]) pool.push_back(w);
      }
      RandomStream oracle_rng(seed * 1000 + n);
      RandomStream sampler_rng(seed * 1000 + n);
      for (std::uint32_t k = 1; k <= n + 1; ++k) {
        sampler.draw(pool, k, sampler_rng, picks);
        ASSERT_EQ(picks, reference_draw(alive, k, oracle_rng))
            << "seed " << seed << ", pool " << n << ", k " << k;
        RandomStream oracle_next = oracle_rng;
        RandomStream sampler_next = sampler_rng;
        ASSERT_EQ(sampler_next.engine()(), oracle_next.engine()())
            << "seed " << seed << ", pool " << n << ", k " << k;
      }
    }
  }
}

TEST(SubsetSampler, EmptyPoolDrawsNothing) {
  sched::SubsetSampler sampler;
  std::vector<cluster::WorkerIndex> picks{7};
  RandomStream rng(3);
  RandomStream untouched = rng;
  sampler.draw({}, 4, rng, picks);
  EXPECT_TRUE(picks.empty());
  EXPECT_EQ(rng.engine()(), untouched.engine()());
}

/// Checks the live-worker index against a fresh walk of the fleet on every
/// submit, then hands the job to a round-robin push scheduler.
class IndexCheckingScheduler final : public sched::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "index-check"; }

  void attach(const sched::SchedulerContext& ctx) override {
    ctx_ = ctx;
    inner_.attach(ctx);
  }

  void submit(const workflow::Job& job) override {
    const std::uint64_t rebuilds_before = live_.rebuilds();
    const std::vector<cluster::WorkerIndex>& live = live_.of(ctx_);
    std::vector<cluster::WorkerIndex> walk;
    for (cluster::WorkerIndex w = 0; w < ctx_.worker_count(); ++w) {
      if (!ctx_.workers[w]->failed()) walk.push_back(w);
    }
    EXPECT_EQ(live, walk) << "submit " << submits;
    const bool epoch_moved = submits == 0 || *ctx_.fleet_epoch != seen_epoch_;
    EXPECT_EQ(live_.rebuilds() - rebuilds_before, epoch_moved ? 1u : 0u)
        << "submit " << submits;
    seen_epoch_ = *ctx_.fleet_epoch;
    ++submits;
    inner_.submit(job);
  }

  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return live_.rebuilds(); }
  std::uint64_t submits = 0;

 private:
  sched::SchedulerContext ctx_;
  sched::SimplePushScheduler inner_{sched::PushPolicy::kRoundRobin};
  sched::LiveWorkers live_;
  std::uint64_t seen_epoch_ = 0;
};

TEST(LiveWorkers, MatchesAFreshWalkUnderRandomCrashesAndRecoveries) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::EngineConfig config = testutil::noiseless(seed);
    config.faults = fault::FaultPlan::parse("crashes:p=0.7,window=300,down=40");
    auto scheduler = std::make_unique<IndexCheckingScheduler>();
    IndexCheckingScheduler& checker = *scheduler;
    core::Engine engine(testutil::uniform_fleet(24), std::move(scheduler), config);
    const auto report = engine.run(testutil::distinct_jobs(300, 50.0, 1.0));
    EXPECT_EQ(report.jobs_lost, 0u);
    EXPECT_GT(engine.worker_crashes(), 10u);
    EXPECT_GT(engine.worker_recoveries(), 10u);
    EXPECT_GE(checker.submits, 300u);
    // Rebuilt on moved epochs only: far fewer times than it was read.
    EXPECT_GT(checker.rebuilds(), 1u);
    EXPECT_LT(checker.rebuilds() * 2, checker.submits);
  }
}

TEST(LiveWorkers, SkipsMaskedSlotsAndRebuildsEveryReadWithoutAnEpoch) {
  core::Engine engine(testutil::uniform_fleet(4),
                      sched::SchedulerSpec("round-robin").build(1), testutil::noiseless());
  sched::SchedulerContext ctx;
  ctx.workers = {&engine.worker(0), nullptr, &engine.worker(2), &engine.worker(3)};
  sched::LiveWorkers live;
  EXPECT_EQ(live.of(ctx), (std::vector<cluster::WorkerIndex>{0, 2, 3}));
  EXPECT_EQ(live.of(ctx), (std::vector<cluster::WorkerIndex>{0, 2, 3}));
  EXPECT_EQ(live.rebuilds(), 2u);

  const std::uint64_t epoch = 5;
  ctx.fleet_epoch = &epoch;
  (void)live.of(ctx);
  (void)live.of(ctx);
  EXPECT_EQ(live.rebuilds(), 3u);
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

TEST_F(ScaleBrokerTest, HandlerMaySubscribeDuringItsOwnDelivery) {
  struct State {
    msg::TopicId topic = 0;
    int first_calls = 0;
    std::vector<int> late;  // payloads heard by the subscribers added mid-delivery
  } state;
  state.topic = broker_.topic("t");
  // Two pointers of captures keep the closure inside the std::function, in
  // the slab slot itself: a slot reallocated under the running call would
  // free the closure it is reading its captures from.
  broker_.subscribe(state.topic, nodes_[1], [this, &state](const msg::Message&) {
    if (state.first_calls == 0) {
      // Enough subscriptions to reallocate the slab that holds this handler.
      for (int i = 0; i < 64; ++i) {
        broker_.subscribe(state.topic, nodes_[static_cast<std::size_t>(2 + i % 2)],
                          [&state](const msg::Message& m) {
                            state.late.push_back(m.payload.as<int>());
                          });
      }
    }
    ++state.first_calls;
  });
  EXPECT_EQ(broker_.publish(state.topic, nodes_[0], 1), 1u);
  sim_.run();
  EXPECT_EQ(state.first_calls, 1);
  EXPECT_TRUE(state.late.empty());  // the first publish fanned out before they joined

  EXPECT_EQ(broker_.publish(state.topic, nodes_[0], 2), 65u);
  const net::NodeId targets[] = {nodes_[2]};
  EXPECT_EQ(broker_.publish_to(state.topic, nodes_[0], 3, targets), 32u);
  sim_.run();
  EXPECT_EQ(state.first_calls, 2);
  EXPECT_EQ(std::count(state.late.begin(), state.late.end(), 2), 64);
  EXPECT_EQ(std::count(state.late.begin(), state.late.end(), 3), 32);
  EXPECT_TRUE(broker_.stats().conserved());
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
  // Same-tick burst: zero jitter lands every copy on one tick, yet each one
  // rides its own kernel event and is handled in send order.
  std::vector<int> received;
  broker_.register_mailbox(nodes_[1], "box", [&](const msg::Message& m) {
    received.push_back(m.payload.as<int>());
  });
  for (int i = 0; i < 8; ++i) broker_.send(nodes_[0], nodes_[1], "box", i);
  EXPECT_EQ(broker_.in_flight(), 8u);
  sim_.run();

  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim_.fired(), 8u);
  EXPECT_EQ(broker_.stats().delivered, 8u);
  EXPECT_EQ(broker_.in_flight(), 0u);
  EXPECT_TRUE(broker_.stats().conserved());
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
}

TEST(Scenario, UnknownKeysAndBadValuesAreErrors) {
  EXPECT_THROW((void)core::ExperimentSpec::from_json(json::parse(R"({"wobble": 1})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExperimentSpec::from_json(json::parse(R"({"workers": -3})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExperimentSpec::from_json(json::parse(R"({"noise": "heavy"})")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)core::ExperimentSpec::from_json(json::parse(R"({"coalesce_deliveries": true})")),
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

// --- SchedulerSpec: config strings ---------------------------------------

TEST(Factory, ParsesConfigStrings) {
  EXPECT_EQ(sched::SchedulerSpec("bidding:fanout=probe:4").build(1)->name(),
            "bidding+probe:4");
  EXPECT_EQ(sched::SchedulerSpec("bidding:learn=true").build(1)->name(), "bidding+learned");
  EXPECT_EQ(sched::SchedulerSpec("bidding+learned:fanout=probe:2").build(1)->name(),
            "bidding+learned+probe:2");
  EXPECT_EQ(sched::SchedulerSpec("baseline:declines=2,requeue_back=true").build(1)->name(),
            "baseline");
  for (const std::string& name : sched::SchedulerSpec::known_types()) {
    EXPECT_NE(sched::SchedulerSpec(name).build(1), nullptr);
  }
}

TEST(Factory, UnknownKeysListTheValidOnes) {
  try {
    (void)sched::SchedulerSpec("bidding:widnow=2").build(1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown key 'widnow'"), std::string::npos);
    EXPECT_NE(what.find("fanout, window, serialize, learn, alpha, slack"), std::string::npos);
  }
  EXPECT_THROW((void)sched::SchedulerSpec("matchmaking:x=1").build(1), std::invalid_argument);
  EXPECT_THROW((void)sched::SchedulerSpec("bidding:fanout=probe:0").build(1),
               std::invalid_argument);
  EXPECT_THROW((void)sched::SchedulerSpec("bidding:fanout=cached:0").build(1),
               std::invalid_argument);
  EXPECT_THROW((void)sched::SchedulerSpec("bidding:fanout=cached:abc").build(1),
               std::invalid_argument);
  EXPECT_THROW((void)sched::SchedulerSpec("bidding:slack=fast").build(1),
               std::invalid_argument);
  EXPECT_THROW((void)sched::SchedulerSpec("bidding:window").build(1), std::invalid_argument);
  EXPECT_THROW((void)sched::SchedulerSpec("nonesuch").build(1), std::invalid_argument);
}

TEST(Factory, CheckSchedulerSpecReportsWithoutThrowing) {
  // validate() reports instead of throwing; the first issue's message, or ""
  // when the spec is valid for the fleet.
  const auto first_issue = [](const char* text, std::size_t workers) {
    const std::vector<sched::SpecIssue> issues = sched::SchedulerSpec(text).validate(workers);
    return issues.empty() ? std::string{} : issues.front().message;
  };
  EXPECT_EQ(first_issue("bidding:fanout=probe:4", 50), "");
  EXPECT_NE(first_issue("bidding:fanout=probe:400", 50), "");
  EXPECT_NE(first_issue("bidding:bogus=1", 5), "");
  EXPECT_NE(first_issue("nonesuch", 5), "");
  EXPECT_EQ(first_issue("bidding:fanout=cached:4", 50), "");
  EXPECT_EQ(first_issue("bidding:fanout=cached:50", 50), "");
  const std::string too_big = first_issue("bidding:fanout=cached:51", 50);
  EXPECT_NE(too_big.find("cached fan-out k=51"), std::string::npos);
  EXPECT_NE(too_big.find("exceeds the fleet"), std::string::npos);
  // Malformed cached specs report the full mode list without throwing.
  const std::string bad_k = first_issue("bidding:fanout=cached:0", 50);
  EXPECT_NE(bad_k.find("'full'"), std::string::npos);
  EXPECT_NE(bad_k.find("'probe:K'"), std::string::npos);
  EXPECT_NE(bad_k.find("'cached:K'"), std::string::npos);
  EXPECT_NE(first_issue("bidding:fanout=cached:abc", 50), "");
}

}  // namespace
}  // namespace dlaja
