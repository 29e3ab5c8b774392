// Federated multi-scheduler control plane.
//
// Covers the federation contract end to end: the partitions=1 identity
// (bit-identical to the plain policy, no federation layer at all),
// hexfloat goldens for 2- and 4-partition cells on both kernels, digest
// determinism under staleness bounds, cross-partition spill, and
// scheduler-crash adoption — all with job conservation under faults.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "sched/spec.hpp"
#include "workload/generator.hpp"

namespace dlaja {
namespace {

// ---------------------------------------------------------------------------
// helpers

core::ExperimentSpec cell(const std::string& scheduler, std::size_t workers,
                          std::size_t jobs = 60) {
  core::ExperimentSpec spec;
  spec.scheduler = scheduler;
  spec.worker_count = workers;
  spec.job_config = workload::JobConfig::k80Large;
  workload::WorkloadSpec body = workload::make_workload_spec(spec.job_config);
  body.job_count = jobs;
  spec.custom_workload = body;
  spec.iterations = 1;
  spec.seed = 42;
  return spec;
}

std::vector<metrics::RunReport> run(const core::ExperimentSpec& spec) {
  EXPECT_TRUE(spec.validate().empty());
  return core::run_experiment(spec);
}

void expect_same_report(const metrics::RunReport& a, const metrics::RunReport& b) {
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.data_load_mb, b.data_load_mb);
  EXPECT_EQ(a.avg_turnaround_s, b.avg_turnaround_s);
  EXPECT_EQ(a.avg_alloc_latency_s, b.avg_alloc_latency_s);
  EXPECT_EQ(a.fairness_index, b.fairness_index);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

// ---------------------------------------------------------------------------
// partitions=1 identity

TEST(Federation, PartitionsOneIsBitIdenticalToPlainPolicy) {
  // Setting every federation knob with partitions=1 must not change one
  // bit of the run: build() constructs the plain policy, and nothing else
  // (topics, seeds, gauges) may differ either. Every pre-federation golden
  // rests on this identity.
  const auto plain = run(cell("bidding:fanout=probe:2", 6));
  const auto inert = run(cell(
      "bidding:fanout=probe:2,fed.partitions=1,fed.digest_interval=1,"
      "fed.staleness_bound=3,fed.spill_threshold=0.5,fed.successor=0",
      6));
  ASSERT_EQ(plain.size(), inert.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_same_report(plain[i], inert[i]);
  }
  EXPECT_EQ(plain[0].scheduler, inert[0].scheduler);
}

// ---------------------------------------------------------------------------
// goldens (hexfloat, bit-identical across releases)

struct Golden {
  double exec_time_s;
  double data_load_mb;
  double avg_turnaround_s;
  std::uint64_t cache_misses;
  std::uint64_t jobs_completed;
  std::uint64_t messages_delivered;
  std::uint64_t events_fired;
};

void expect_golden(const std::string& scheduler, const Golden& golden) {
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Small), SeedSequencer(42));
  core::EngineConfig config;
  config.seed = 42;
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kFastSlow, 8),
                      sched::SchedulerSpec::parse(scheduler).build(42), config);
  const metrics::RunReport report = engine.run(workload.jobs);
  const std::uint64_t events_fired = engine.simulator().fired();
  // Full-precision actuals so a deliberate re-golden can copy them.
  std::printf("golden[%s] = {%a, %a, %a, %lluu, %lluu, %lluu, %lluu}\n", scheduler.c_str(),
              report.exec_time_s, report.data_load_mb, report.avg_turnaround_s,
              static_cast<unsigned long long>(report.cache_misses),
              static_cast<unsigned long long>(report.jobs_completed),
              static_cast<unsigned long long>(report.messages_delivered),
              static_cast<unsigned long long>(events_fired));
  EXPECT_EQ(report.exec_time_s, golden.exec_time_s);
  EXPECT_EQ(report.data_load_mb, golden.data_load_mb);
  EXPECT_EQ(report.avg_turnaround_s, golden.avg_turnaround_s);
  EXPECT_EQ(report.cache_misses, golden.cache_misses);
  EXPECT_EQ(report.jobs_completed, golden.jobs_completed);
  EXPECT_EQ(report.messages_delivered, golden.messages_delivered);
  EXPECT_EQ(events_fired, golden.events_fired);
}

TEST(FederationGolden, PartitionsOneMatchesSeed) {
  // partitions=1 through the Engine: must equal the plain bidding kernel.
  expect_golden("bidding:fed.partitions=1",
                Golden{0x1.d646553ac4f7fp+7, 0x1.8bc3de6a27b07p+13,
                       0x1.b09160d40e98dp+1, 52u, 120u, 2160u, 3424u});
}

TEST(FederationGolden, PartitionsTwoMatchesSeed) {
  expect_golden("bidding:fed.partitions=2",
                Golden{0x1.dbfeaa4b9884cp+7, 0x1.8db3a1063327ep+13,
                       0x1.27efda32e6dd3p+2, 55u, 120u, 1484u, 2346u});
}

TEST(FederationGolden, PartitionsFourWithSpillMatchesSeed) {
  expect_golden("bidding:fed.partitions=4,fed.spill_threshold=1.2",
                Golden{0x1.35f07357e670ep+8, 0x1.8efe22c390223p+13,
                       0x1.e1db7e525d0bcp+2, 57u, 120u, 1492u, 2190u});
}

// ---------------------------------------------------------------------------
// digests + spill

TEST(Federation, DigestCadenceAndStalenessAreDeterministic) {
  // Two runs of the same federated spec — digests, spills and all — must
  // reproduce every report field exactly, for both a tight and a loose
  // staleness bound (the bound changes which digests are trusted, never
  // whether the run is reproducible).
  for (const char* bound : {"1", "15"}) {
    const std::string scheduler =
        "bidding:fed.partitions=3,fed.digest_interval=1,fed.spill_threshold=1.2,"
        "fed.staleness_bound=" +
        std::string(bound);
    const auto first = run(cell(scheduler, 6));
    const auto second = run(cell(scheduler, 6));
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      expect_same_report(first[i], second[i]);
      EXPECT_EQ(first[i].stat("fed.spills"), second[i].stat("fed.spills"));
      EXPECT_EQ(first[i].stat("fed.digests"), second[i].stat("fed.digests"));
    }
    EXPECT_GT(first[0].stat("fed.digests"), 0.0) << "digest timer never fired";
  }
}

TEST(Federation, EveryJobRoutesAndSpillRedistributes) {
  // An imbalanced weighted split under a spill threshold: the overloaded
  // partition must ship jobs to the lighter one, and every job still
  // completes exactly once.
  auto spec = cell(
      "bidding:fed.partitions=2,fed.weights=3:1,fed.digest_interval=1,"
      "fed.spill_threshold=1.5",
      8, 80);
  const auto reports = run(spec);
  EXPECT_EQ(reports[0].jobs_completed, 80u);
  EXPECT_EQ(reports[0].stat("fed.routed"), 80.0);
  EXPECT_GT(reports[0].stat("fed.spills"), 0.0) << "no cross-partition spill happened";
}

// ---------------------------------------------------------------------------
// scheduler crashes

TEST(Federation, SpillConservationUnderSchedulerCrash) {
  // A mid-run scheduler crash with spill enabled: conservation must hold
  // (submitted == completed + dead_lettered, nothing lost), bit-identically
  // across two runs.
  auto spec = cell(
      "bidding:fed.partitions=4,fed.digest_interval=1,fed.spill_threshold=1.2,"
      "fed.successor=0,fed.adoption_grace=5",
      8, 80);
  spec.faults = fault::FaultPlan::parse("sched_crash:s=1,at=5,down=40");
  const auto first = run(spec);
  EXPECT_EQ(first[0].stat("fault.sched_crashes"), 1.0);
  EXPECT_EQ(first[0].jobs_submitted,
            first[0].jobs_completed + first[0].jobs_dead_lettered);
  EXPECT_EQ(first[0].jobs_lost, 0u);
  const auto second = run(spec);
  expect_same_report(first[0], second[0]);
}

TEST(Federation, CrashedPartitionIsAdoptedByConfiguredSuccessor) {
  // Matchmaking parks jobs centrally until workers idle, so a permanent
  // crash strands queued work unless the successor adopts it. All jobs
  // must still complete.
  auto spec = cell(
      "matchmaking:fed.partitions=4,fed.successor=0,fed.adoption_grace=5", 8, 120);
  spec.faults = fault::FaultPlan::parse("sched_crash:s=1,at=30");
  const auto reports = run(spec);
  EXPECT_GT(reports[0].stat("fed.adoptions"), 0.0) << "successor adopted nothing";
  EXPECT_EQ(reports[0].jobs_submitted,
            reports[0].jobs_completed + reports[0].jobs_dead_lettered);
  EXPECT_EQ(reports[0].jobs_lost, 0u);
}

TEST(Federation, RecoveryInsideGraceWindowSkipsAdoption) {
  // A crash that heals before the adoption grace expires: the instance
  // resumes its own partition and the successor takes nothing.
  auto spec = cell(
      "matchmaking:fed.partitions=4,fed.successor=0,fed.adoption_grace=20", 8, 120);
  spec.faults = fault::FaultPlan::parse("sched_crash:s=1,at=30,down=5");
  const auto reports = run(spec);
  EXPECT_EQ(reports[0].stat("fed.adoptions"), 0.0);
  EXPECT_EQ(reports[0].jobs_submitted,
            reports[0].jobs_completed + reports[0].jobs_dead_lettered);
  EXPECT_EQ(reports[0].jobs_lost, 0u);
}

// ---------------------------------------------------------------------------
// composition

TEST(Federation, ComposesWithOpenArrivals) {
  auto spec = cell("bidding:fed.partitions=2,fed.spill_threshold=1.5", 6);
  workload::OpenArrivalSpec arrivals;
  arrivals.rate_per_s = 4.0;
  arrivals.duration_s = 20.0;
  spec.open_arrivals = arrivals;
  const auto first = run(spec);
  const auto second = run(spec);
  EXPECT_GT(first[0].jobs_completed, 0u);
  expect_same_report(first[0], second[0]);
}

TEST(Federation, FederatedSchedulerReportsItsName) {
  const auto reports = run(cell("bidding:fed.partitions=2", 6));
  EXPECT_EQ(reports[0].scheduler, "fed(bidding)x2");
}

}  // namespace
}  // namespace dlaja
