// Tests for the tracing subsystem: tracer core, Chrome-trace export
// round-trip, self-time profiling, the counter/histogram registry, and the
// end-to-end instrumentation of a simulated run.

#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "metrics/registry.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/baseline.hpp"
#include "sched/bidding.hpp"
#include "test_helpers.hpp"

namespace dlaja::obs {
namespace {

// --- Tracer core ----------------------------------------------------------

TEST(Tracer, ActiveGuardRequiresAttachedAndEnabled) {
  Tracer tracer;
  Tracer* none = nullptr;
  EXPECT_FALSE(DLAJA_TRACE_ACTIVE(none));
  EXPECT_FALSE(DLAJA_TRACE_ACTIVE(&tracer));  // attached but disabled
  tracer.set_enabled(true);
#ifdef DLAJA_TRACE_DISABLED
  EXPECT_FALSE(DLAJA_TRACE_ACTIVE(&tracer));  // compiled out entirely
#else
  EXPECT_TRUE(DLAJA_TRACE_ACTIVE(&tracer));
#endif
}

TEST(Tracer, InternIsStableAndIdZeroIsPlaceholder) {
  Tracer tracer;
  const std::uint16_t a = tracer.intern("alpha");
  const std::uint16_t b = tracer.intern("beta");
  EXPECT_NE(a, 0);
  EXPECT_NE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.intern("alpha"), a);
  EXPECT_EQ(tracer.name(a), "alpha");
  EXPECT_EQ(tracer.name(0), "?");
  EXPECT_EQ(tracer.name(9999), "?");  // out-of-range ids stay printable
}

TEST(Tracer, RecordsTypedEvents) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint16_t name = tracer.intern("work");
  tracer.span(Component::kWorker, name, 3, 100, 250, 7);
  tracer.instant(Component::kSched, name, 1, 400, 8);
  tracer.counter(Component::kSim, name, 0, 500, 42.5);
  ASSERT_EQ(tracer.events().size(), 3u);
  const TraceEvent& span = tracer.events()[0];
  EXPECT_EQ(span.type, EventType::kSpan);
  EXPECT_EQ(span.ts, 100);
  EXPECT_EQ(span.dur, 150);
  EXPECT_EQ(span.track, 3u);
  EXPECT_EQ(span.arg, 7u);
  EXPECT_EQ(tracer.events()[1].type, EventType::kInstant);
  EXPECT_EQ(tracer.events()[2].type, EventType::kCounter);
  EXPECT_DOUBLE_EQ(tracer.events()[2].value, 42.5);
}

TEST(Tracer, NegativeDurationClampsToZero) {
  Tracer tracer;
  tracer.span(Component::kSim, 0, 0, 100, 50);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].dur, 0);
}

TEST(Tracer, CapacityCapCountsDrops) {
  Tracer tracer(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) tracer.instant(Component::kSim, 0, 0, i);
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  // clear() frees the buffer but keeps the interned names.
  const std::uint16_t id = tracer.intern("kept");
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.name(id), "kept");
}

TEST(Tracer, ComponentNamesRoundTrip) {
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    const auto comp = static_cast<Component>(i);
    EXPECT_EQ(component_from_name(component_name(comp)), comp);
  }
  EXPECT_EQ(component_from_name("nonsense"), Component::kCore);
}

// --- Chrome-trace export / import ----------------------------------------

TEST(ChromeTrace, ExportEmitsMetadataAndParsesBack) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint16_t plain = tracer.intern("transfer");
  const std::uint16_t quoted = tracer.intern("odd \"name\"\twith\nescapes");
  tracer.span(Component::kNet, plain, 2, 1000, 4500, 11);
  tracer.instant(Component::kSched, quoted, 1, 2000, 12);
  tracer.counter(Component::kSim, plain, 0, 3000, 0.125);

  std::ostringstream out;
  write_chrome_trace(out, tracer);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\\\"name\\\""), std::string::npos);  // escaped quote

  Tracer imported;
  std::istringstream in(json);
  const std::size_t read = read_chrome_trace(in, imported);
  EXPECT_EQ(read, 3u);
  ASSERT_EQ(imported.events().size(), 3u);
  const TraceEvent& span = imported.events()[0];
  EXPECT_EQ(span.type, EventType::kSpan);
  EXPECT_EQ(span.comp, Component::kNet);
  EXPECT_EQ(span.ts, 1000);
  EXPECT_EQ(span.dur, 3500);
  EXPECT_EQ(span.track, 2u);
  EXPECT_EQ(span.arg, 11u);
  EXPECT_EQ(imported.name(span.name), "transfer");
  const TraceEvent& instant = imported.events()[1];
  EXPECT_EQ(instant.type, EventType::kInstant);
  EXPECT_EQ(imported.name(instant.name), "odd \"name\"\twith\nescapes");
  const TraceEvent& counter = imported.events()[2];
  EXPECT_EQ(counter.type, EventType::kCounter);
  EXPECT_DOUBLE_EQ(counter.value, 0.125);
}

TEST(ChromeTrace, OverflowedTraceCarriesItsDropCountThroughExportAndImport) {
  Tracer full(/*capacity=*/1000);
  Tracer overflowed(/*capacity=*/1000);
  full.set_enabled(true);
  overflowed.set_enabled(true);
  for (int i = 0; i < 1000; ++i) full.instant(Component::kSim, 0, 0, i);
  for (int i = 0; i < 1250; ++i) overflowed.instant(Component::kSim, 0, 0, i);
  ASSERT_EQ(full.dropped(), 0u);
  ASSERT_EQ(overflowed.dropped(), 250u);

  // A trace that fit its buffer carries no key, so its bytes do not change.
  std::ostringstream full_out;
  write_chrome_trace(full_out, full);
  EXPECT_EQ(full_out.str().find("droppedEvents"), std::string::npos);
  Tracer full_imported;
  std::istringstream full_in(full_out.str());
  EXPECT_EQ(read_chrome_trace(full_in, full_imported), 1000u);
  EXPECT_EQ(full_imported.dropped(), 0u);

  std::ostringstream out;
  write_chrome_trace(out, overflowed);
  EXPECT_NE(out.str().find("{\"displayTimeUnit\":\"ms\",\"droppedEvents\":250,"),
            std::string::npos);
  Tracer imported;
  std::istringstream in(out.str());
  EXPECT_EQ(read_chrome_trace(in, imported), 1000u);
  EXPECT_EQ(imported.dropped(), 250u);  // the exporter's drops, none on import
}

TEST(ChromeTrace, CsvExportListsAllEvents) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint16_t name = tracer.intern("flow");
  tracer.span(Component::kNet, name, 4, 10, 60, 3);
  tracer.counter(Component::kNet, name, 4, 60, 123.0);
  std::ostringstream out;
  write_trace_csv(out, tracer);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("type,component,name,track,ts_us,dur_us,value,arg"),
            std::string::npos);
  EXPECT_NE(csv.find("span,net,flow,4,10,50,"), std::string::npos);
  EXPECT_NE(csv.find("counter,net,flow,4,60,0,123"), std::string::npos);
}

// --- Profiling ------------------------------------------------------------

TEST(Profile, SelfTimeSubtractsNestedChildren) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint16_t outer = tracer.intern("outer");
  const std::uint16_t inner = tracer.intern("inner");
  // outer [0,100] with inner [10,40] fully nested on the same track.
  tracer.span(Component::kWorker, outer, 0, 0, 100);
  tracer.span(Component::kWorker, inner, 0, 10, 40);

  const Profile profile = build_profile(tracer);
  ASSERT_EQ(profile.rows.size(), 2u);
  // Rows sort by self descending: outer has 70, inner 30.
  EXPECT_EQ(profile.rows[0].name, "outer");
  EXPECT_EQ(profile.rows[0].total, 100);
  EXPECT_EQ(profile.rows[0].self, 70);
  EXPECT_EQ(profile.rows[1].name, "inner");
  EXPECT_EQ(profile.rows[1].self, 30);
  const ComponentProfile& worker =
      profile.components[static_cast<std::size_t>(Component::kWorker)];
  EXPECT_EQ(worker.spans, 2u);
  EXPECT_EQ(worker.total, 130);
  EXPECT_EQ(worker.self, 100);  // nested time counted once
}

TEST(Profile, PartialOverlapDoesNotNest) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint16_t a = tracer.intern("a");
  const std::uint16_t b = tracer.intern("b");
  // [0,50] and [30,80] overlap but neither contains the other (two slots of
  // one worker): both keep their full self time.
  tracer.span(Component::kWorker, a, 0, 0, 50);
  tracer.span(Component::kWorker, b, 0, 30, 80);
  const Profile profile = build_profile(tracer);
  ASSERT_EQ(profile.rows.size(), 2u);
  for (const ProfileRow& row : profile.rows) EXPECT_EQ(row.self, 50);
}

TEST(Profile, TracksAreIndependentTimelines) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint16_t name = tracer.intern("x");
  tracer.span(Component::kNet, name, 0, 0, 100);
  tracer.span(Component::kNet, name, 1, 10, 40);  // different track: no nesting
  const Profile profile = build_profile(tracer);
  ASSERT_EQ(profile.rows.size(), 1u);
  EXPECT_EQ(profile.rows[0].count, 2u);
  EXPECT_EQ(profile.rows[0].total, 130);
  EXPECT_EQ(profile.rows[0].self, 130);
  EXPECT_EQ(profile.rows[0].max, 100);
}

TEST(Profile, PrintIncludesComponentAndTopTables) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.span(Component::kMsg, tracer.intern("deliver"), 0, 0, 2'000'000);
  std::ostringstream out;
  print_profile(out, tracer, 10);
  const std::string text = out.str();
  EXPECT_NE(text.find("per-component self time"), std::string::npos);
  EXPECT_NE(text.find("top spans by self time"), std::string::npos);
  EXPECT_NE(text.find("msg"), std::string::npos);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("2.000"), std::string::npos);  // 2 simulated seconds
}

// --- Registry -------------------------------------------------------------

TEST(Registry, CountersAccumulate) {
  metrics::Registry registry;
  registry.counter("a").add(2);
  registry.counter("a").add(3);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  EXPECT_FALSE(registry.empty());
}

TEST(Registry, HistogramTracksExactExtremesAndApproximatePercentiles) {
  metrics::Registry registry;
  metrics::Histogram& h = registry.histogram("turnaround");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log-linear buckets guarantee < 12.5% relative error.
  EXPECT_NEAR(h.percentile(50.0), 50.0, 50.0 * 0.125);
  EXPECT_NEAR(h.percentile(95.0), 95.0, 95.0 * 0.125);
  // p0/p100 clamp to the observed extremes.
  EXPECT_GE(h.percentile(0.0), 1.0);
  EXPECT_LE(h.percentile(100.0), 100.0);
}

TEST(Registry, HistogramHandlesDegenerateInputs) {
  metrics::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  h.record(0.0);      // non-positive lands in the lowest bucket
  h.record(-3.0);
  h.record(1e300);    // beyond the top octave clamps to the last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
}

TEST(Registry, FlattenIsDeterministicAndExpandsHistograms) {
  metrics::Registry registry;
  registry.counter("z.count").add(7);
  registry.counter("a.count").add(1);
  registry.histogram("h").record(2.0);
  const auto flat = registry.flatten();
  ASSERT_EQ(flat.size(), 7u);  // 2 counters + 5 histogram stats
  EXPECT_EQ(flat[0].first, "a.count");
  EXPECT_EQ(flat[1].first, "z.count");
  EXPECT_EQ(flat[2].first, "h.count");
  EXPECT_DOUBLE_EQ(flat[2].second, 1.0);
  EXPECT_EQ(flat[3].first, "h.mean");
  EXPECT_EQ(flat[6].first, "h.max");
}

// --- End-to-end instrumentation -------------------------------------------

#ifndef DLAJA_TRACE_DISABLED
TEST(TracedRun, EmitsSpansFromAllMajorComponents) {
  core::Engine engine(testutil::uniform_fleet(3),
                      std::make_unique<sched::BiddingScheduler>(), testutil::noiseless());
  Tracer tracer;
  tracer.set_enabled(true);
  engine.simulator().set_tracer(&tracer);
  (void)engine.run(testutil::distinct_jobs(12, 200.0, 0.5));

  bool span_seen[kComponentCount] = {};
  bool any_counter = false;
  for (const TraceEvent& event : tracer.events()) {
    if (event.type == EventType::kSpan || event.type == EventType::kInstant) {
      span_seen[static_cast<std::size_t>(event.comp)] = true;
    }
    any_counter |= event.type == EventType::kCounter;
  }
  EXPECT_TRUE(span_seen[static_cast<std::size_t>(Component::kSim)]);
  EXPECT_TRUE(span_seen[static_cast<std::size_t>(Component::kMsg)]);
  EXPECT_TRUE(span_seen[static_cast<std::size_t>(Component::kNet)]);
  EXPECT_TRUE(span_seen[static_cast<std::size_t>(Component::kSched)]);
  EXPECT_TRUE(span_seen[static_cast<std::size_t>(Component::kWorker)]);
  EXPECT_TRUE(span_seen[static_cast<std::size_t>(Component::kCore)]);
  EXPECT_TRUE(any_counter);
  EXPECT_EQ(tracer.dropped(), 0u);

  // The whole trace survives a JSON round-trip.
  std::ostringstream out;
  write_chrome_trace(out, tracer);
  Tracer imported;
  std::istringstream in(out.str());
  EXPECT_EQ(read_chrome_trace(in, imported), tracer.events().size());
}
#endif

TEST(TracedRun, TracingDoesNotChangeResults) {
  const auto jobs = testutil::distinct_jobs(10, 150.0, 0.4);

  core::Engine plain(testutil::uniform_fleet(3),
                     std::make_unique<sched::BaselineScheduler>(), testutil::noiseless());
  const auto untraced = plain.run(jobs);

  core::Engine traced_engine(testutil::uniform_fleet(3),
                             std::make_unique<sched::BaselineScheduler>(),
                             testutil::noiseless());
  Tracer tracer;
  tracer.set_enabled(true);
  traced_engine.simulator().set_tracer(&tracer);
  const auto traced = traced_engine.run(jobs);

  // Observation must never perturb the simulation: bit-identical reports.
  EXPECT_EQ(traced.exec_time_s, untraced.exec_time_s);
  EXPECT_EQ(traced.cache_misses, untraced.cache_misses);
  EXPECT_EQ(traced.data_load_mb, untraced.data_load_mb);
  EXPECT_EQ(traced.avg_turnaround_s, untraced.avg_turnaround_s);
  EXPECT_EQ(traced.messages_delivered, untraced.messages_delivered);
  EXPECT_EQ(traced_engine.simulator().fired(), plain.simulator().fired());
}

TEST(TracedRun, RegistryStatsReachTheReport) {
  core::Engine engine(testutil::uniform_fleet(2),
                      std::make_unique<sched::BiddingScheduler>(), testutil::noiseless());
  const auto report = engine.run(testutil::distinct_jobs(6, 100.0, 0.5));
  EXPECT_FALSE(report.stats.empty());
  EXPECT_GT(report.stat("sim.events_fired"), 0.0);
  EXPECT_GT(report.stat("msg.delivered"), 0.0);
  EXPECT_EQ(report.stat("sched.contests"), 6.0);
  EXPECT_GT(report.stat("worker.job_s.count"), 0.0);
  EXPECT_EQ(report.stat("no.such.stat", -1.0), -1.0);
}

}  // namespace
}  // namespace dlaja::obs
