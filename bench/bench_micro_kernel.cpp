// Micro benchmarks (google-benchmark): throughput of the substrates the
// reproduction is built on — event queue, RNG, broker delivery, cache
// operations, and whole-simulation rates for both schedulers. Nothing
// records these numbers: compare a kernel change by running the bench on the
// parent and the change back to back (perfbench/ is the measured benchmark).

#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "msg/broker.hpp"
#include "obs/trace.hpp"
#include "sched/spec.hpp"
#include "sim/simulator.hpp"
#include "storage/cache.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dlaja;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(static_cast<Tick>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1 << 10)->Arg(1 << 14);

// The queue shape of the paper's protocol at fleet scale (the
// broadcast256_faults workload): about 1,000 far-future timers (arrivals,
// crashes, leases) stand in the queue while bursts of 256 deliveries, 1-16 ms
// ahead, are scheduled and fired. BM_EventQueueScheduleFire above only
// drains a pre-filled queue.
void BM_EventQueueBurstOverBacklog(benchmark::State& state) {
  constexpr int kBacklog = 1000;
  constexpr int kBurst = 256;
  sim::Simulator sim;
  Xoshiro256 rng(5);
  // Far enough ahead that no burst reaches them: each iteration moves the
  // clock by at most 16 ms.
  const Tick far = ticks_from_seconds(1e6);
  for (int i = 0; i < kBacklog; ++i) {
    sim.schedule_at(far + static_cast<Tick>(rng() % static_cast<std::uint64_t>(far)), [] {});
  }
  const auto spread = static_cast<std::uint64_t>(ticks_from_millis(15.0));
  for (auto _ : state) {
    const Tick start = sim.now() + ticks_from_millis(1.0);
    for (int i = 0; i < kBurst; ++i) {
      sim.schedule_at(start + static_cast<Tick>(rng() % spread), [] {});
    }
    benchmark::DoNotOptimize(sim.run(kNeverTick, kBurst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBurst);
}
BENCHMARK(BM_EventQueueBurstOverBacklog);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(1024);
    for (int i = 0; i < 1024; ++i) ids.push_back(sim.schedule_at(i, [] {}));
    for (const auto id : ids) sim.cancel(id);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventCancellation);

// Timer-wheel pattern: every event gets a timeout scheduled alongside it and
// ~90% of those timeouts are cancelled before they fire. Exercises cancel()
// against a large live heap rather than the drain-in-order case above.
void BM_EventCancelHeavy(benchmark::State& state) {
  constexpr int kBatch = 4096;
  std::vector<sim::EventId> ids;
  ids.reserve(kBatch);
  for (auto _ : state) {
    sim::Simulator sim;
    sim.reserve(kBatch);
    ids.clear();
    Xoshiro256 rng(7);
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(sim.schedule_at(static_cast<Tick>(i + rng() % 512), [] {}));
    }
    for (int i = 0; i < kBatch; ++i) {
      if (i % 10 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_EventCancelHeavy);

// Tracing overhead on the schedule→fire hot path. Arg(0) runs with no
// tracer attached (the default production state — one pointer load per
// dispatch); Arg(1) attaches an enabled Tracer so every dispatch records a
// span; compare the two arms side by side.
void BM_EventTracing(benchmark::State& state) {
  constexpr std::size_t kBatch = 1 << 12;
  const bool traced = state.range(0) != 0;
  obs::Tracer tracer(1 << 22);
  tracer.set_enabled(true);
  for (auto _ : state) {
    sim::Simulator sim;
    if (traced) sim.set_tracer(&tracer);
    for (std::size_t i = 0; i < kBatch; ++i) {
      sim.schedule_at(static_cast<Tick>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
    tracer.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_EventTracing)->Arg(0)->Arg(1);

// Steady-state mix as the cluster model produces it: refresh a lane's timeout
// (cancel + reschedule), occasionally drain a window of due events. Measures
// the kernel with schedule/cancel/fire interleaved instead of phased.
void BM_EventMixedWorkload(benchmark::State& state) {
  constexpr int kOps = 8192;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.reserve(256);
    std::array<sim::EventId, 64> timeouts{};
    Xoshiro256 rng(11);
    std::uint64_t fired = 0;
    for (int i = 0; i < kOps; ++i) {
      auto& lane = timeouts[rng() % timeouts.size()];
      sim.cancel(lane);
      lane = sim.schedule_after(static_cast<Tick>(1 + rng() % 256), [&fired] { ++fired; });
      if ((i & 7) == 0) sim.run(sim.now() + 32);
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kOps);
}
BENCHMARK(BM_EventMixedWorkload);

// Capture-size sweep across InlineAction's storage tiers: payload + the
// captured reference gives total captures of 16B (fixed small copy), 56B
// (exactly the inline budget), and 128B (pooled-slab fallback).
template <std::size_t PayloadBytes>
void BM_ActionCapture(benchmark::State& state) {
  constexpr int kBatch = 1024;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      std::array<std::byte, PayloadBytes> payload{};
      payload[0] = static_cast<std::byte>(i);
      sim.schedule_after(static_cast<Tick>(i % 61),
                         [&acc, payload] { acc += static_cast<std::uint64_t>(payload[0]); });
    }
    benchmark::DoNotOptimize(sim.run());
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
  state.SetLabel(sizeof(std::uint64_t*) + PayloadBytes <= sim::InlineAction::kInlineSize
                     ? "inline"
                     : "pooled");
}
BENCHMARK_TEMPLATE(BM_ActionCapture, 8);
BENCHMARK_TEMPLATE(BM_ActionCapture, 48);
BENCHMARK_TEMPLATE(BM_ActionCapture, 120);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(42);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro);

void BM_RandomVariates(benchmark::State& state) {
  RandomStream rng(42);
  double acc = 0.0;
  for (auto _ : state) {
    acc += rng.lognormal(0.0, 0.3) + rng.exponential(2.0) + rng.bounded_pareto(1.0, 100.0, 1.1);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_RandomVariates);

void BM_BrokerSendDeliver(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::NetworkModel network(SeedSequencer(1), net::NoiseConfig::none());
    const auto a = network.register_node("a", {});
    const auto b = network.register_node("b", {});
    msg::Broker broker(sim, network);
    std::uint64_t count = 0;
    broker.register_mailbox(b, "box", [&](const msg::Message&) { ++count; });
    for (int i = 0; i < 1000; ++i) broker.send(a, b, "box", i);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BrokerSendDeliver);

void BM_CacheLruChurn(benchmark::State& state) {
  storage::CacheConfig config;
  config.policy = storage::EvictionPolicy::kLru;
  config.capacity_mb = 1000.0;
  storage::ResourceCache cache(config);
  storage::ResourceId next = 1;
  for (auto _ : state) {
    cache.admit({next, 10.0});
    benchmark::DoNotOptimize(cache.access(next > 50 ? next - 50 : next));
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLruChurn);

void BM_FullSimulation(benchmark::State& state) {
  const bool bidding = state.range(0) == 1;
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Large), SeedSequencer(42));
  for (auto _ : state) {
    core::EngineConfig config;
    config.seed = 42;
    const sched::SchedulerSpec scheduler(bidding ? "bidding" : "baseline");
    core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kFastSlow),
                        scheduler.build(config.seed), config);
    const auto report = engine.run(workload.jobs);
    benchmark::DoNotOptimize(report.exec_time_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.jobs.size()));
  state.SetLabel(bidding ? "bidding/120jobs" : "baseline/120jobs");
}
BENCHMARK(BM_FullSimulation)->Arg(1)->Arg(0);

void BM_EngineTelemetry(benchmark::State& state) {
  // The same bidding cell as BM_FullSimulation, with telemetry off (arg 0)
  // or sampling every `arg` simulated seconds — the sweep bounds the cost
  // of the gauge-sampling slice points plus the watchdog checks, at the
  // default cadence (kTelemetryDefaultIntervalS = 30s, budgeted at <= 3%
  // overhead on this cell) and under a 30x-denser stress cadence (1s).
  const auto cadence_s = static_cast<double>(state.range(0));
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Large), SeedSequencer(42));
  for (auto _ : state) {
    core::EngineConfig config;
    config.seed = 42;
    if (cadence_s > 0) config.telemetry.interval = ticks_from_seconds(cadence_s);
    core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kFastSlow),
                        sched::SchedulerSpec("bidding").build(config.seed), config);
    const auto report = engine.run(workload.jobs);
    benchmark::DoNotOptimize(report.exec_time_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.jobs.size()));
  state.SetLabel(cadence_s > 0 ? "telemetry@" + std::to_string(state.range(0)) + "s"
                               : "telemetry-off");
}
BENCHMARK(BM_EngineTelemetry)->Arg(0)->Arg(30)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
