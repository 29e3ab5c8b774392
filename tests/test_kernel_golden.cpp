// Bit-reproducibility regression guard for the simulation kernel.
//
// The event core promises a deterministic (tick, seq) total order: for a
// fixed seed, every run produces bit-identical metrics. The golden values
// below were captured from the seed (priority_queue + unordered_map)
// implementation; any kernel rewrite must reproduce them exactly — not
// approximately — or it has changed the firing order.

#include <gtest/gtest.h>

#include <cstdio>

#include "cluster/config.hpp"
#include "core/engine.hpp"
#include "sched/factory.hpp"
#include "workload/generator.hpp"

namespace dlaja {
namespace {

struct Golden {
  double exec_time_s;
  double data_load_mb;
  double avg_turnaround_s;
  double fairness_index;
  std::uint64_t cache_misses;
  std::uint64_t jobs_completed;
  std::uint64_t messages_delivered;
  std::uint64_t events_fired;
};

metrics::RunReport run_cell(const std::string& scheduler, std::uint64_t seed,
                            std::uint64_t* events_fired) {
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Small), SeedSequencer(seed));
  core::EngineConfig config;
  config.seed = seed;
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kFastSlow),
                      sched::make_scheduler(scheduler), config);
  metrics::RunReport report = engine.run(workload.jobs);
  EXPECT_TRUE(engine.broker().stats().conserved());
  *events_fired = engine.simulator().fired();
  return report;
}

void expect_matches(const std::string& scheduler, std::uint64_t seed, const Golden& golden) {
  std::uint64_t events_fired = 0;
  const metrics::RunReport report = run_cell(scheduler, seed, &events_fired);
  // Dump actuals in full precision so a future kernel change that
  // deliberately re-goldens can copy them from the failure log.
  std::printf("golden[%s/%llu] = {%a, %a, %a, %a, %lluu, %lluu, %lluu, %lluu}\n",
              scheduler.c_str(), static_cast<unsigned long long>(seed),
              report.exec_time_s, report.data_load_mb, report.avg_turnaround_s,
              report.fairness_index,
              static_cast<unsigned long long>(report.cache_misses),
              static_cast<unsigned long long>(report.jobs_completed),
              static_cast<unsigned long long>(report.messages_delivered),
              static_cast<unsigned long long>(events_fired));
  // Bit-identical, hence EXPECT_EQ on doubles (no tolerance).
  EXPECT_EQ(report.exec_time_s, golden.exec_time_s);
  EXPECT_EQ(report.data_load_mb, golden.data_load_mb);
  EXPECT_EQ(report.avg_turnaround_s, golden.avg_turnaround_s);
  EXPECT_EQ(report.fairness_index, golden.fairness_index);
  EXPECT_EQ(report.cache_misses, golden.cache_misses);
  EXPECT_EQ(report.jobs_completed, golden.jobs_completed);
  EXPECT_EQ(report.messages_delivered, golden.messages_delivered);
  EXPECT_EQ(events_fired, golden.events_fired);
}

TEST(KernelGolden, BiddingSeed42MatchesSeedImplementation) {
  expect_matches("bidding", 42,
                 Golden{0x1.d6922fad6cb53p+7, 0x1.8bc3de6a27b07p+13, 0x1.dd53b62ac9d82p+1,
                        0x1.ff39dd442f14ap-2, 52u, 120u, 1440u, 2338u});
}

TEST(KernelGolden, BaselineSeed42MatchesSeedImplementation) {
  expect_matches("baseline", 42,
                 Golden{0x1.32ef3083558a7p+8, 0x1.8bc3de6a27b07p+13, 0x1.27c000e8a4e12p+3,
                        0x1.d899a0bc94ef1p-1, 52u, 120u, 1190u, 1842u});
}

TEST(KernelGolden, BiddingSeed7MatchesSeedImplementation) {
  expect_matches("bidding", 7,
                 Golden{0x1.f147852f7f499p+7, 0x1.96b08cb7aa73dp+13, 0x1.1a095cc3de9fdp+2,
                        0x1.30220ef63f62fp-1, 54u, 120u, 1440u, 2347u});
}

TEST(ShardGolden, SingleShardMatchesClassicKernel) {
  // EngineConfig::shards accepts only 1; setting it explicitly must
  // reproduce the bidding/42 golden above bit for bit.
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Small), SeedSequencer(42));
  core::EngineConfig config;
  config.seed = 42;
  config.shards = 1;
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kFastSlow),
                      sched::make_scheduler("bidding"), config);
  const metrics::RunReport report = engine.run(workload.jobs);
  EXPECT_TRUE(engine.broker().stats().conserved());
  EXPECT_EQ(report.exec_time_s, 0x1.d6922fad6cb53p+7);
  EXPECT_EQ(report.data_load_mb, 0x1.8bc3de6a27b07p+13);
  EXPECT_EQ(report.avg_turnaround_s, 0x1.dd53b62ac9d82p+1);
  EXPECT_EQ(report.fairness_index, 0x1.ff39dd442f14ap-2);
  EXPECT_EQ(report.cache_misses, 52u);
  EXPECT_EQ(report.jobs_completed, 120u);
  EXPECT_EQ(report.messages_delivered, 1440u);
}

TEST(KernelGolden, SameSeedTwiceIsBitIdentical) {
  std::uint64_t fired_a = 0, fired_b = 0;
  const auto a = run_cell("bidding", 1234, &fired_a);
  const auto b = run_cell("bidding", 1234, &fired_b);
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.data_load_mb, b.data_load_mb);
  EXPECT_EQ(a.avg_turnaround_s, b.avg_turnaround_s);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(fired_a, fired_b);
}

}  // namespace
}  // namespace dlaja
