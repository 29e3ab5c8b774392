// Flow-network hot-loop benchmarks (google-benchmark): arrival/cancel/
// completion churn against the max-min fair flow model at 1k-64k concurrent
// flows, plus one end-to-end shared-bandwidth experiment cell. A micro bench
// that nothing records: compare a flow-model rewrite by running it on the
// parent and the change back to back (perfbench/ is the measured benchmark).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "net/flow.hpp"
#include "sched/spec.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dlaja;

constexpr std::size_t kNodes = 64;
constexpr double kNodeCapacity = 100.0;
// Half the aggregate node demand: the origin constraint binds, so every
// reallocation runs the full (not single-node) water-filling pass.
constexpr double kOriginCapacity = kNodes * kNodeCapacity / 2.0;

net::NodeId churn_node(std::size_t i) { return static_cast<net::NodeId>(i % kNodes); }

/// Steady-state arrival/cancel churn: N live flows, each op replaces the
/// oldest flow with a fresh one (one cancel + one start, two reallocations).
/// Volumes are huge so no flow ever completes and the live count stays N.
void BM_FlowChurnStartCancel(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::FlowNetwork flows(sim, kOriginCapacity);
  for (std::size_t n = 0; n < kNodes; ++n) {
    flows.set_node_capacity(churn_node(n), kNodeCapacity);
  }
  std::vector<net::FlowId> ids(live);
  for (std::size_t i = 0; i < live; ++i) {
    ids[i] = flows.start_flow(churn_node(i), 1e9, nullptr);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    flows.cancel_flow(ids[next]);
    ids[next] = flows.start_flow(churn_node(next), 1e9, nullptr);
    next = (next + 1) % live;
  }
  benchmark::DoNotOptimize(flows.active_flows());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_FlowChurnStartCancel)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

/// Completion churn: start N flows with staggered volumes, then drain the
/// simulation — every completion triggers a reallocation over the remaining
/// flows. One iteration = N starts + N completions.
void BM_FlowCompletionDrain(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t completed = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::FlowNetwork flows(sim, kOriginCapacity);
    for (std::size_t n = 0; n < kNodes; ++n) {
      flows.set_node_capacity(churn_node(n), kNodeCapacity);
    }
    for (std::size_t i = 0; i < batch; ++i) {
      flows.start_flow(churn_node(i), static_cast<double>(i % 97 + 1),
                       [&completed] { ++completed; });
    }
    sim.run();
    benchmark::DoNotOptimize(flows.active_flows());
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * batch));
}
BENCHMARK(BM_FlowCompletionDrain)->Arg(1 << 10)->Arg(1 << 12);

/// Handle-lookup cost under load: current_rate() against N live flows.
void BM_FlowCurrentRate(benchmark::State& state) {
  constexpr std::size_t kLive = 4096;
  sim::Simulator sim;
  net::FlowNetwork flows(sim, kOriginCapacity);
  for (std::size_t n = 0; n < kNodes; ++n) {
    flows.set_node_capacity(churn_node(n), kNodeCapacity);
  }
  std::vector<net::FlowId> ids(kLive);
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = flows.start_flow(churn_node(i), 1e9, nullptr);
  }
  std::size_t next = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += flows.current_rate(ids[next]);
    next = (next + 1) % kLive;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowCurrentRate);

/// End-to-end shared-bandwidth cell (the A7 ablation's hot configuration):
/// 120 80%-large jobs through the bidding scheduler with a 100 MB/s origin.
/// Tracks how much of a whole experiment the flow model costs.
void BM_FlowSharedNetCell(benchmark::State& state) {
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Large), SeedSequencer(42));
  for (auto _ : state) {
    core::EngineConfig config;
    config.seed = 42;
    config.shared_bandwidth = true;
    config.origin_capacity_mbps = 100.0;
    core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kAllEqual),
                        sched::SchedulerSpec("bidding").build(config.seed), config);
    const auto report = engine.run(workload.jobs);
    benchmark::DoNotOptimize(report.exec_time_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.jobs.size()));
  state.SetLabel("bidding/120jobs/shared");
}
BENCHMARK(BM_FlowSharedNetCell);

}  // namespace

BENCHMARK_MAIN();
