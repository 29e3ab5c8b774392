// In-run telemetry: sampler unit tests, engine integration, determinism.
//
// The telemetry subsystem promises (a) the sampled tick set is exactly the
// canonical grid, (b) ring retention compacts to
// a doubled stride without ever exceeding capacity, (c) the watchdog fails
// the run naming the offending tick and probe, (d) a fault plan that
// crashes a worker mid-lease keeps every registered invariant clean, and
// (e) turning telemetry on changes no report bit. The hexfloat comparisons
// in the bit-identity tests pin (e) across releases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "obs/telemetry.hpp"
#include "sched/factory.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace dlaja {
namespace {

// ---------------------------------------------------------------------------
// Sampler unit tests (no engine)

obs::TelemetryConfig small_config(Tick interval, std::size_t capacity = 4096) {
  obs::TelemetryConfig config;
  config.interval = interval;
  config.capacity = capacity;
  return config;
}

TEST(TelemetrySampler, UnboundIsInert) {
  const obs::TelemetrySampler sampler;
  EXPECT_FALSE(sampler.bound());
  EXPECT_EQ(sampler.next_due(), kNeverTick);
}

TEST(TelemetrySampler, BindRejectsBadConfig) {
  obs::ProbeRegistry registry;
  obs::TelemetrySampler sampler;
  EXPECT_THROW(sampler.bind(registry, small_config(0)), std::invalid_argument);
  EXPECT_THROW(sampler.bind(registry, small_config(10, 1)), std::invalid_argument);
}

TEST(ProbeRegistry, RejectsNonzeroTag) {
  // The tag parameter is kept only because perfbench passes it; a run has
  // one sampler, so any tag but 0 is a caller bug.
  obs::ProbeRegistry registry;
  EXPECT_THROW(registry.add_gauge("g", 1, [] { return 0.0; }), std::invalid_argument);
  EXPECT_THROW(registry.add_invariant("i", 1, [] { return std::string(); }),
               std::invalid_argument);
  EXPECT_EQ(registry.gauge_count(), 0u);
  EXPECT_EQ(registry.invariant_count(), 0u);
  registry.add_gauge("g", 0, [] { return 0.0; });
  registry.add_invariant("i", 0, [] { return std::string(); });
  EXPECT_EQ(registry.gauge_count(), 1u);
  EXPECT_EQ(registry.invariant_count(), 1u);
}

TEST(TelemetrySampler, SamplesOnGridAndSumsSharedNames) {
  obs::ProbeRegistry registry;
  double a = 1.0, b = 10.0, other = 5.0;
  registry.add_gauge("x", 0, [&a] { return a; });
  registry.add_gauge("x", 0, [&b] { return b; });
  registry.add_gauge("y", 0, [&other] { return other; });

  obs::TelemetrySampler sampler;
  sampler.bind(registry, small_config(10));
  EXPECT_EQ(sampler.next_due(), 10);
  for (Tick t = 10; t <= 40; t += 10) {
    sampler.sample(t);
    a += 1.0;
  }
  ASSERT_EQ(sampler.ticks(), (std::vector<Tick>{10, 20, 30, 40}));
  ASSERT_EQ(sampler.names(), (std::vector<std::string>{"x", "y"}));
  // Shared-name gauges sum into one series.
  EXPECT_EQ(sampler.values()[0], (std::vector<double>{11.0, 12.0, 13.0, 14.0}));
  EXPECT_EQ(sampler.values()[1], (std::vector<double>{5.0, 5.0, 5.0, 5.0}));
}

TEST(TelemetrySampler, RingRetentionDoublesStrideUnderCapacity) {
  obs::ProbeRegistry registry;
  registry.add_gauge("v", 0, [] { return 1.0; });
  obs::TelemetrySampler sampler;
  sampler.bind(registry, small_config(5, 8));
  for (Tick t = 5; t <= 5 * 100; t += 5) sampler.sample(t);
  // 100 samples into capacity 8: retention never exceeds capacity and the
  // retained ticks sit on one regular stride-times-interval grid.
  const std::vector<Tick>& ticks = sampler.ticks();
  ASSERT_LE(ticks.size(), 8u);
  ASSERT_GE(ticks.size(), 2u);
  const Tick stride = ticks[1] - ticks[0];
  EXPECT_EQ(stride % 5, 0u);
  EXPECT_GT(stride, 5u);  // compaction must have happened
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i] - ticks[i - 1], stride) << "at row " << i;
  }
  // The newest *grid-aligned* tick is retained (samples between grid points
  // are thinned out, so the tail lags the last sample by under one stride).
  EXPECT_GT(ticks.back() + stride, 500u);
  EXPECT_LE(ticks.back(), 500u);
}

TEST(TelemetrySampler, FinalizePadsMissingTicks) {
  obs::ProbeRegistry registry;
  double v = 7.0;
  registry.add_gauge("v", 0, [&v] { return v; });
  // The gap up to the canonical target is padded from (quiescent) final
  // state; a target already reached adds nothing.
  obs::TelemetrySampler padded;
  padded.bind(registry, small_config(10));
  padded.sample(10);
  padded.finalize(10);
  EXPECT_EQ(padded.ticks(), (std::vector<Tick>{10}));
  padded.finalize(40);
  EXPECT_EQ(padded.ticks(), (std::vector<Tick>{10, 20, 30, 40}));
  EXPECT_EQ(padded.values()[0], (std::vector<double>{7.0, 7.0, 7.0, 7.0}));
}

TEST(TelemetrySampler, WatchdogRecordsFirstViolationAndKeepsSampling) {
  obs::ProbeRegistry registry;
  int calls = 0;
  registry.add_invariant("always.bad", 0, [&calls] {
    ++calls;
    return std::string("broke on call ") + std::to_string(calls);
  });
  obs::TelemetrySampler sampler;
  sampler.bind(registry, small_config(10));
  sampler.sample(10);
  sampler.sample(20);
  ASSERT_TRUE(sampler.violation().has_value());
  EXPECT_EQ(sampler.violation()->tick, 10u);
  EXPECT_EQ(sampler.violation()->probe, "always.bad");
  EXPECT_EQ(sampler.violation()->message, "broke on call 1");
  // The first violation sticks; further checks stop but the tick cursor
  // keeps advancing.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sampler.next_due(), 30u);
  sampler.finalize(20);
  EXPECT_EQ(sampler.ticks(), (std::vector<Tick>{10, 20}));
}

TEST(TelemetrySampler, TableSortsNamesAndSumsSharedSeries) {
  obs::ProbeRegistry registry;
  registry.add_gauge("b", 0, [] { return 1.0; });
  registry.add_gauge("a", 0, [] { return 2.0; });
  registry.add_gauge("b", 0, [] { return 3.0; });
  obs::TelemetrySampler sampler;
  EXPECT_TRUE(sampler.table().empty());  // unbound: nothing to export
  sampler.bind(registry, small_config(10));
  sampler.sample(10);
  sampler.sample(20);
  sampler.finalize(20);
  // Registration order is b, a; the table's columns are sorted by name.
  ASSERT_EQ(sampler.names(), (std::vector<std::string>{"b", "a"}));
  const obs::TelemetryTable table = sampler.table();
  EXPECT_EQ(table.interval, 10u);
  EXPECT_EQ(table.ticks, (std::vector<Tick>{10, 20}));
  ASSERT_EQ(table.names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(table.values[0], (std::vector<double>{2.0, 2.0}));
  EXPECT_EQ(table.values[1], (std::vector<double>{4.0, 4.0}));
}

TEST(TelemetryExport, CsvAndJsonShapes) {
  obs::TelemetryTable table;
  table.interval = 10;
  table.ticks = {10, 20};
  table.names = {"a", "b"};
  table.values = {{1.5, 2.5}, {0.0, 4.0}};
  std::ostringstream csv;
  obs::write_telemetry_csv(csv, table);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')), "tick,time_s,a,b");
  EXPECT_NE(csv.str().find("10,"), std::string::npos);

  std::ostringstream json_out;
  obs::write_telemetry_json(json_out, table);
  const json::Value doc = json::parse(json_out.str());
  const json::Object& root = doc.as_object();
  ASSERT_TRUE(root.contains("interval_ticks"));
  EXPECT_EQ(root.find("interval_ticks")->as_number(), 10.0);
  EXPECT_EQ(root.find("ticks")->as_array().size(), 2u);
  ASSERT_TRUE(root.contains("series"));
  EXPECT_EQ(root.find("series")->as_object().find("a")->as_array().size(), 2u);

  // Exporting an empty table is header-only / structurally valid, not UB.
  std::ostringstream empty_csv, empty_json;
  obs::write_telemetry_csv(empty_csv, obs::TelemetryTable{});
  obs::write_telemetry_json(empty_json, obs::TelemetryTable{});
  EXPECT_EQ(empty_csv.str(), "tick,time_s\n");
  EXPECT_NO_THROW((void)json::parse(empty_json.str()));
}

// ---------------------------------------------------------------------------
// Engine integration

core::EngineConfig telemetry_config(std::uint64_t seed, double interval_s) {
  core::EngineConfig config = testutil::noiseless(seed);
  config.master_link.latency_jitter_ms = 0.0;
  config.telemetry.interval = ticks_from_seconds(interval_s);
  return config;
}

TEST(TelemetryEngine, SamplesOnCanonicalGrid) {
  core::Engine engine(testutil::uniform_fleet(4), sched::make_scheduler("bidding"),
                      telemetry_config(42, 5.0));
  (void)engine.run(testutil::distinct_jobs(30, 150.0, 0.5));
  ASSERT_TRUE(engine.telemetry().has_value());
  const obs::TelemetryTable& table = *engine.telemetry();
  ASSERT_FALSE(table.empty());
  const Tick interval = ticks_from_seconds(5.0);
  for (std::size_t i = 0; i < table.ticks.size(); ++i) {
    EXPECT_EQ(table.ticks[i], interval * (i + 1));
  }
  // The core series are present.
  for (const char* name : {"master.pending_jobs", "master.live_jobs", "worker.backlog_s",
                           "worker.busy", "worker.queued", "broker.in_flight",
                           "sched.contests_open"}) {
    EXPECT_NE(std::find(table.names.begin(), table.names.end(), name), table.names.end())
        << name;
  }
}

TEST(TelemetryEngine, OffByDefaultLeavesNoTable) {
  core::Engine engine(testutil::uniform_fleet(3), sched::make_scheduler("bidding"),
                      testutil::noiseless());
  (void)engine.run(testutil::distinct_jobs(10, 100.0, 0.5));
  EXPECT_FALSE(engine.telemetry().has_value());
  EXPECT_EQ(engine.probes().gauge_count(), 0u);
}

metrics::RunReport run_jittered(std::uint64_t seed, double interval_s) {
  const auto workload = workload::generate_workload(
      workload::make_workload_spec(workload::JobConfig::k80Small), SeedSequencer(seed));
  core::EngineConfig config;
  config.seed = seed;
  if (interval_s > 0.0) config.telemetry.interval = ticks_from_seconds(interval_s);
  core::Engine engine(cluster::make_fleet(cluster::FleetPreset::kFastSlow),
                      sched::make_scheduler("bidding"), config);
  return engine.run(workload.jobs);
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

TEST(TelemetryEngine, ReportBitIdenticalWithTelemetryOn) {
  // The determinism contract: sampling is read-only and RNG-free, so the
  // full jittered paper cell reproduces bit-for-bit with telemetry on, at
  // both a coarse and a pathological 1ms cadence.
  const metrics::RunReport off = run_jittered(42, 0.0);
  expect_same_report(off, run_jittered(42, 5.0));
  expect_same_report(off, run_jittered(42, 0.001));
}

TEST(TelemetryEngine, CadenceDeterminism) {
  // Same run twice -> byte-identical CSV.
  const auto render = [] {
    core::Engine engine(testutil::uniform_fleet(4), sched::make_scheduler("bidding"),
                        telemetry_config(7, 2.0));
    (void)engine.run(testutil::distinct_jobs(25, 180.0, 0.4));
    std::ostringstream out;
    obs::write_telemetry_csv(out, *engine.telemetry());
    return out.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(TelemetryEngine, WatchdogTripsNamingTickAndProbe) {
  core::Engine engine(testutil::uniform_fleet(3), sched::make_scheduler("bidding"),
                      telemetry_config(42, 5.0));
  // Tests may inject invariants through the public registry; this one fails
  // from the second sample onwards.
  int samples = 0;
  engine.probes().add_invariant("test.injected", 0, [&samples] {
    return ++samples >= 2 ? "deliberately broken" : "";
  });
  try {
    (void)engine.run(testutil::distinct_jobs(20, 150.0, 0.5));
    FAIL() << "expected the watchdog to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("test.injected"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(2 * ticks_from_seconds(5.0))), std::string::npos)
        << what;
    EXPECT_NE(what.find("deliberately broken"), std::string::npos) << what;
  }
}

TEST(TelemetryEngine, WatchdogOffIgnoresViolations) {
  core::EngineConfig config = telemetry_config(42, 5.0);
  config.telemetry.watchdog = false;
  core::Engine engine(testutil::uniform_fleet(3), sched::make_scheduler("bidding"), config);
  engine.probes().add_invariant("test.injected", 0, [] { return "broken"; });
  EXPECT_NO_THROW((void)engine.run(testutil::distinct_jobs(10, 100.0, 0.5)));
}

TEST(TelemetryEngine, InvariantsCleanUnderCrashMidLease) {
  // A worker crash mid-lease exercises void/retry/reassignment paths; the
  // registered conservation and cache-capacity invariants must stay green
  // the whole run.
  core::EngineConfig config = telemetry_config(99, 1.0);
  config.faults = fault::FaultPlan::parse("crash:w=1,at=10,down=25");
  core::Engine engine(testutil::uniform_fleet(6), sched::make_scheduler("bidding"), config);
  metrics::RunReport report;
  ASSERT_NO_THROW(report = engine.run(testutil::distinct_jobs(40, 150.0, 0.5)));
  EXPECT_GT(engine.worker_crashes(), 0u);
  EXPECT_EQ(report.jobs_lost, 0u);
  ASSERT_TRUE(engine.telemetry().has_value());
  EXPECT_FALSE(engine.telemetry()->empty());
}

TEST(TelemetryEngine, CachedFanoutExportsLoadErrorSeries) {
  core::Engine engine(testutil::uniform_fleet(4),
                      sched::make_scheduler("bidding:fanout=cached:2"),
                      telemetry_config(42, 5.0));
  (void)engine.run(testutil::distinct_jobs(30, 150.0, 0.5));
  const obs::TelemetryTable& table = *engine.telemetry();
  const auto it = std::find(table.names.begin(), table.names.end(), "cache.load_error_s");
  ASSERT_NE(it, table.names.end());
  // believed - actual backlog: every sample is a finite signed error.
  const std::vector<double>& series =
      table.values[static_cast<std::size_t>(it - table.names.begin())];
  ASSERT_FALSE(series.empty());
  for (const double v : series) EXPECT_TRUE(std::isfinite(v));
}

// ---------------------------------------------------------------------------
// Spec plumbing

TEST(TelemetrySpec, ScenarioRoundTripsTelemetryFields) {
  core::ExperimentSpec spec;
  spec.telemetry_interval_s = 2.5;
  spec.telemetry_capacity = 128;
  spec.telemetry_watchdog = false;
  const core::ExperimentSpec back = core::ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(back.telemetry_interval_s, 2.5);
  EXPECT_EQ(back.telemetry_capacity, 128u);
  EXPECT_FALSE(back.telemetry_watchdog);

  // Defaults stay out of the serialized form entirely.
  core::ExperimentSpec plain;
  EXPECT_EQ(plain.to_json().dump().find("telemetry"), std::string::npos);
}

TEST(TelemetrySpec, EmptyTelemetryObjectOptsInAtDefaultCadence) {
  // The key's presence is the opt-in: an empty object (or one that only
  // tweaks capacity / watchdog) samples at the default cadence, while an
  // explicit interval_s: 0 keeps telemetry off.
  const auto parse = [](const std::string& telemetry) {
    return core::ExperimentSpec::from_json(
        json::parse(R"({"workers": 2, "telemetry": )" + telemetry + "}"));
  };
  EXPECT_EQ(parse("{}").telemetry_interval_s, core::kTelemetryDefaultIntervalS);
  const core::ExperimentSpec tweaked = parse(R"({"capacity": 64, "watchdog": false})");
  EXPECT_EQ(tweaked.telemetry_interval_s, core::kTelemetryDefaultIntervalS);
  EXPECT_EQ(tweaked.telemetry_capacity, 64u);
  EXPECT_FALSE(tweaked.telemetry_watchdog);
  EXPECT_EQ(parse(R"({"interval_s": 0})").telemetry_interval_s, 0.0);
  EXPECT_EQ(parse(R"({"interval_s": 2.5})").telemetry_interval_s, 2.5);
}

TEST(TelemetrySpec, ValidateCatchesBadTelemetry) {
  core::ExperimentSpec spec;
  spec.telemetry_interval_s = -1.0;
  auto issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "telemetry");

  spec.telemetry_interval_s = 1.0;
  spec.telemetry_capacity = 1;
  issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "telemetry");

  spec.telemetry_capacity = 2;
  EXPECT_TRUE(spec.validate().empty());
}

TEST(TelemetrySpec, ExperimentReportsUnchangedByTelemetry) {
  core::ExperimentSpec spec;
  spec.worker_count = 4;
  spec.iterations = 2;
  const auto off = core::run_experiment(spec);
  spec.telemetry_interval_s = 2.0;
  const auto on = core::run_experiment(spec);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    expect_same_report(off[i], on[i]);
  }
}

}  // namespace
}  // namespace dlaja
