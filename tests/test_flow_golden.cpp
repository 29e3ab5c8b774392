// Bit-reproducibility regression guard for the shared-bandwidth flow model.
//
// Same contract as test_kernel_golden.cpp, but with the flow-level network
// in the loop: for a fixed seed, a shared-bandwidth run must produce
// bit-identical reports. The golden values below were captured from the
// hash-map + full-recompute FlowNetwork (PR 1 tree); the flat-slab
// water-filling rewrite must reproduce them exactly — not approximately —
// or it has changed rates, completion ticks, or event ordering.
//
// The cells deliberately run with the default noise scheme: noise draws
// make exact completion-tick ties (where the old unordered_map iteration
// order was the tie-break) measure-zero, so the goldens pin the arithmetic
// rather than an accidental hash order.

#include <gtest/gtest.h>

#include <cstdio>

#include "cluster/config.hpp"
#include "core/engine.hpp"
#include "sched/spec.hpp"
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

metrics::RunReport run_shared_cell(const std::string& scheduler, std::uint64_t seed,
                                   double origin_mbps, std::uint64_t* events_fired) {
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Large), SeedSequencer(seed));
  core::EngineConfig config;
  config.seed = seed;
  config.shared_bandwidth = true;
  config.origin_capacity_mbps = origin_mbps;
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kAllEqual),
                      sched::SchedulerSpec(scheduler).build(1), config);
  metrics::RunReport report = engine.run(workload.jobs);
  *events_fired = engine.simulator().fired();
  return report;
}

void expect_matches(const std::string& scheduler, std::uint64_t seed, double origin_mbps,
                    const Golden& golden) {
  std::uint64_t events_fired = 0;
  const metrics::RunReport report = run_shared_cell(scheduler, seed, origin_mbps, &events_fired);
  // Dump actuals in full precision so a future flow-model change that
  // deliberately re-goldens can copy them from the failure log.
  std::printf("flow_golden[%s/%llu/%g] = {%a, %a, %a, %a, %lluu, %lluu, %lluu, %lluu}\n",
              scheduler.c_str(), static_cast<unsigned long long>(seed), origin_mbps,
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

TEST(FlowGolden, BiddingSeed42Origin100MatchesSeedImplementation) {
  expect_matches("bidding", 42, 100.0,
                 Golden{0x1.0041e7ea5f84dp+9, 0x1.9d274c1a8da8ep+14, 0x1.24f0dead9fe0dp+7,
                        0x1.fda35aceeaa68p-1, 66u, 120u, 1440u, 2483u});
}

TEST(FlowGolden, BaselineSeed42Origin100MatchesSeedImplementation) {
  expect_matches("baseline", 42, 100.0,
                 Golden{0x1.024874e22a2c2p+9, 0x1.9d274c1a8da8ep+14, 0x1.2d1193b1f90c1p+7,
                        0x1.ff709a204078ep-1, 66u, 120u, 785u, 1448u});
}

TEST(FlowGolden, BiddingSeed7Origin60MatchesSeedImplementation) {
  expect_matches("bidding", 7, 60.0,
                 Golden{0x1.3a48f99806f26p+9, 0x1.77ce4cb123947p+14, 0x1.bcc34d6e0047p+7,
                        0x1.ff2bc0cffedd9p-1, 57u, 120u, 1440u, 2461u});
}

TEST(FlowGolden, BiddingSeed42TightOrigin50MatchesSeedImplementation) {
  expect_matches("bidding", 42, 50.0,
                 Golden{0x1.60db118c197e5p+9, 0x1.9d274c1a8da8ep+14, 0x1.1ee999c709cdbp+8,
                        0x1.ffa463669b8eap-1, 66u, 120u, 1440u, 2483u});
}

TEST(FlowGolden, SameSeedTwiceIsBitIdentical) {
  std::uint64_t fired_a = 0, fired_b = 0;
  const auto a = run_shared_cell("bidding", 1234, 80.0, &fired_a);
  const auto b = run_shared_cell("bidding", 1234, 80.0, &fired_b);
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.data_load_mb, b.data_load_mb);
  EXPECT_EQ(a.avg_turnaround_s, b.avg_turnaround_s);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(fired_a, fired_b);
}

}  // namespace
}  // namespace dlaja
