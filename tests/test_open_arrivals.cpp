// Tests for the open arrival process (workload/arrivals) and the engine's
// streaming path, plus the validation rules guarding the workload knobs
// that feed it (size-class weights, bursty burst_size).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace dlaja {
namespace {

using workload::OpenArrivalSpec;
using workload::OpenArrivalStream;

workload::WorkloadSpec small_body() {
  workload::WorkloadSpec body = workload::make_workload_spec(workload::JobConfig::kAllDiffSmall);
  return body;
}

std::vector<workflow::Job> drain(OpenArrivalStream& stream) {
  std::vector<workflow::Job> jobs;
  while (auto job = stream.next()) jobs.push_back(std::move(*job));
  return jobs;
}

TEST(OpenArrivals, PoissonCountMatchesRateTimesDuration) {
  OpenArrivalSpec spec;
  spec.rate_per_s = 50.0;
  spec.duration_s = 200.0;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(1));
  const auto jobs = drain(stream);
  // N ~ Poisson(10000): 4 sigma = 400.
  EXPECT_NEAR(static_cast<double>(jobs.size()), 10000.0, 400.0);
  EXPECT_EQ(stream.emitted(), jobs.size());
}

TEST(OpenArrivals, ArrivalsAreMonotoneAndWithinHorizon) {
  OpenArrivalSpec spec;
  spec.rate_per_s = 20.0;
  spec.duration_s = 50.0;
  spec.process = OpenArrivalSpec::Process::kMmpp;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(2));
  Tick previous = 0;
  for (const workflow::Job& job : drain(stream)) {
    EXPECT_GE(job.created_at, previous);
    EXPECT_LE(job.created_at, ticks_from_seconds(spec.duration_s));
    previous = job.created_at;
  }
}

TEST(OpenArrivals, SameSeedsSameStream) {
  OpenArrivalSpec spec;
  spec.process = OpenArrivalSpec::Process::kMmpp;
  spec.rate_per_s = 10.0;
  spec.duration_s = 60.0;
  spec.diurnal_amplitude = 0.4;
  spec.diurnal_period_s = 30.0;
  OpenArrivalStream a(small_body(), spec, SeedSequencer(7));
  OpenArrivalStream b(small_body(), spec, SeedSequencer(7));
  const auto jobs_a = drain(a);
  const auto jobs_b = drain(b);
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  for (std::size_t i = 0; i < jobs_a.size(); ++i) {
    EXPECT_EQ(jobs_a[i].id, jobs_b[i].id);
    EXPECT_EQ(jobs_a[i].created_at, jobs_b[i].created_at);
    EXPECT_EQ(jobs_a[i].resource, jobs_b[i].resource);
    EXPECT_EQ(jobs_a[i].resource_size_mb, jobs_b[i].resource_size_mb);
  }
}

TEST(OpenArrivals, MaxJobsCapsTheStream) {
  OpenArrivalSpec spec;
  spec.rate_per_s = 100.0;
  spec.duration_s = 1e9;
  spec.max_jobs = 137;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(3));
  EXPECT_EQ(drain(stream).size(), 137u);
  EXPECT_FALSE(stream.next().has_value());  // stays exhausted
}

TEST(OpenArrivals, DiurnalModulationShiftsMass) {
  // One full sine period over the horizon: the first half runs above the
  // base rate, the second half below it.
  OpenArrivalSpec spec;
  spec.rate_per_s = 100.0;
  spec.duration_s = 100.0;
  spec.diurnal_amplitude = 0.8;
  spec.diurnal_period_s = 100.0;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(4));
  std::size_t first_half = 0, second_half = 0;
  for (const workflow::Job& job : drain(stream)) {
    (job.created_at < ticks_from_seconds(50.0) ? first_half : second_half) += 1;
  }
  EXPECT_GT(first_half, second_half * 3 / 2);
}

TEST(OpenArrivals, MmppIsOverdispersedRelativeToPoisson) {
  // Index of dispersion of per-second counts: ~1 for Poisson, well above 1
  // for a 2-state MMPP with a strong burst multiplier.
  const auto dispersion = [](OpenArrivalSpec spec, std::uint64_t seed) {
    spec.rate_per_s = 30.0;
    spec.duration_s = 400.0;
    OpenArrivalStream stream(workload::make_workload_spec(workload::JobConfig::kAllDiffSmall),
                             spec, SeedSequencer(seed));
    std::vector<double> bins(static_cast<std::size_t>(spec.duration_s), 0.0);
    while (auto job = stream.next()) {
      const auto bin = static_cast<std::size_t>(seconds_from_ticks(job->created_at));
      if (bin < bins.size()) bins[bin] += 1.0;
    }
    RunningStats stats;
    for (const double count : bins) stats.add(count);
    return stats.variance() / stats.mean();
  };
  OpenArrivalSpec poisson;
  OpenArrivalSpec mmpp;
  mmpp.process = OpenArrivalSpec::Process::kMmpp;
  mmpp.burst_multiplier = 6.0;
  mmpp.burst_dwell_s = 10.0;
  mmpp.calm_dwell_s = 30.0;
  const double d_poisson = dispersion(poisson, 11);
  const double d_mmpp = dispersion(mmpp, 11);
  EXPECT_NEAR(d_poisson, 1.0, 0.35);
  EXPECT_GT(d_mmpp, d_poisson * 1.5);
}

TEST(OpenArrivals, PopularitySkewConcentratesOnFewRepos) {
  OpenArrivalSpec spec;
  spec.rate_per_s = 50.0;
  spec.duration_s = 100.0;
  spec.repo_pool = 64;
  spec.popularity_skew = 3.0;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(5));
  std::map<storage::ResourceId, std::size_t> counts;
  std::size_t total = 0;
  for (const workflow::Job& job : drain(stream)) {
    ++counts[job.resource];
    ++total;
  }
  // With skew 3 over u in [0,1), the most popular repo (index 0) absorbs a
  // large share of arrivals; a uniform draw would give ~1/64 each.
  std::size_t top = 0;
  for (const auto& [id, count] : counts) top = std::max(top, count);
  EXPECT_GT(top, total / 10);
}

// ---------------------------------------------------------------------------
// Engine streaming path.

TEST(RunStream, CompletesEveryArrivalAndCountsSojourns) {
  OpenArrivalSpec spec;
  spec.rate_per_s = 10.0;
  spec.duration_s = 1e9;
  spec.max_jobs = 200;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(21));
  core::Engine engine(testutil::uniform_fleet(4), sched::SchedulerSpec("bidding").build(1),
                      testutil::noiseless());
  const auto report = engine.run_stream([&stream] { return stream.next(); });
  EXPECT_EQ(report.jobs_completed, 200u);
  EXPECT_EQ(report.jobs_lost, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(report.stat("job.sojourn_s.count")), 200u);
  EXPECT_GT(report.stat("job.sojourn_s.p50"), 0.0);
}

TEST(RunStream, BitIdenticalAcrossRuns) {
  const auto run_once = [] {
    OpenArrivalSpec spec;
    spec.process = OpenArrivalSpec::Process::kMmpp;
    spec.rate_per_s = 8.0;
    spec.duration_s = 120.0;
    OpenArrivalStream stream(small_body(), spec, SeedSequencer(22));
    core::Engine engine(testutil::uniform_fleet(3), sched::SchedulerSpec("bidding").build(1),
                        testutil::noiseless(9));
    return engine.run_stream([&stream] { return stream.next(); });
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);  // exact: bit-reproducible
  EXPECT_EQ(a.avg_turnaround_s, b.avg_turnaround_s);
  EXPECT_EQ(a.p50_turnaround_s, b.p50_turnaround_s);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.data_load_mb, b.data_load_mb);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

TEST(RunStream, RetiredAggregatesMatchClosedBatchOnSameJobs) {
  // Stream a bounded arrival sequence, then replay the *same* jobs as a
  // closed batch: counts must match exactly, the retired RunningStats
  // means to high precision, and the histogram-backed percentiles within
  // the log-linear resolution (<12.5% per octave).
  OpenArrivalSpec spec;
  spec.rate_per_s = 12.0;
  spec.duration_s = 1e9;
  spec.max_jobs = 150;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(23));
  const std::vector<workflow::Job> jobs = drain(stream);

  core::Engine closed(testutil::uniform_fleet(4), sched::SchedulerSpec("bidding").build(1),
                      testutil::noiseless(5));
  const auto closed_report = closed.run(jobs);

  std::size_t cursor = 0;
  core::Engine streamed(testutil::uniform_fleet(4), sched::SchedulerSpec("bidding").build(1),
                        testutil::noiseless(5));
  const auto streamed_report = streamed.run_stream([&]() -> std::optional<workflow::Job> {
    if (cursor >= jobs.size()) return std::nullopt;
    return jobs[cursor++];
  });

  EXPECT_EQ(streamed_report.jobs_completed, closed_report.jobs_completed);
  EXPECT_EQ(streamed_report.cache_misses, closed_report.cache_misses);
  EXPECT_NEAR(streamed_report.avg_turnaround_s, closed_report.avg_turnaround_s,
              closed_report.avg_turnaround_s * 1e-6 + 1e-9);
  EXPECT_NEAR(streamed_report.avg_alloc_latency_s, closed_report.avg_alloc_latency_s,
              closed_report.avg_alloc_latency_s * 1e-6 + 1e-9);
  EXPECT_NEAR(streamed_report.p50_turnaround_s, closed_report.p50_turnaround_s,
              closed_report.p50_turnaround_s * 0.15);
  EXPECT_NEAR(streamed_report.p99_turnaround_s, closed_report.p99_turnaround_s,
              closed_report.p99_turnaround_s * 0.15);
}

TEST(RunStream, MemoryStaysBoundedByRetirement) {
  // 5000 arrivals through a streaming run: completed jobs are
  // folded into RetiredJobStats, so the live-record map stays small.
  OpenArrivalSpec spec;
  spec.rate_per_s = 40.0;
  spec.duration_s = 1e9;
  spec.max_jobs = 5000;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(24));
  core::Engine engine(testutil::uniform_fleet(8, 200.0, 400.0),
                      sched::SchedulerSpec("bidding").build(1), testutil::noiseless());
  const auto report = engine.run_stream([&stream] { return stream.next(); });
  EXPECT_EQ(report.jobs_completed, 5000u);
  EXPECT_EQ(engine.metrics().retired().count, 5000u);
  EXPECT_EQ(engine.metrics().jobs_in_arrival_order().size(), 0u);
}

TEST(RunStream, TelemetryGaugesAreRegistered) {
  OpenArrivalSpec spec;
  spec.rate_per_s = 10.0;
  spec.duration_s = 60.0;
  OpenArrivalStream stream(small_body(), spec, SeedSequencer(25));
  core::EngineConfig config = testutil::noiseless();
  config.telemetry.interval = ticks_from_seconds(5.0);
  config.telemetry.watchdog = true;
  core::Engine engine(testutil::uniform_fleet(4), sched::SchedulerSpec("bidding").build(1),
                      config);
  (void)engine.run_stream([&stream] { return stream.next(); });
  ASSERT_TRUE(engine.telemetry().has_value());
  const auto& names = engine.telemetry()->names;
  for (const char* gauge : {"job.sojourn_p50_s", "job.sojourn_p99_s", "job.sojourn_p999_s",
                            "master.throughput_jps"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), gauge), names.end()) << gauge;
  }
}

TEST(RunStream, NullSourceIsRejected) {
  core::Engine engine(testutil::uniform_fleet(2), sched::SchedulerSpec("bidding").build(1),
                      testutil::noiseless());
  EXPECT_THROW((void)engine.run_stream(nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Spec plumbing: scenario round-trip and validation.

TEST(OpenArrivalSpecJson, RoundTripsThroughScenario) {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  OpenArrivalSpec arrivals;
  arrivals.process = OpenArrivalSpec::Process::kMmpp;
  arrivals.rate_per_s = 7.5;
  arrivals.duration_s = 1234.0;
  arrivals.max_jobs = 99;
  arrivals.diurnal_amplitude = 0.25;
  arrivals.diurnal_period_s = 300.0;
  arrivals.burst_multiplier = 3.5;
  arrivals.burst_dwell_s = 12.0;
  arrivals.calm_dwell_s = 88.0;
  arrivals.repo_pool = 512;
  arrivals.popularity_skew = 1.5;
  spec.open_arrivals = arrivals;
  spec.iterations = 1;

  const core::ExperimentSpec back = core::ExperimentSpec::from_json(spec.to_json());
  ASSERT_TRUE(back.open_arrivals.has_value());
  EXPECT_TRUE(*back.open_arrivals == arrivals);
  EXPECT_EQ(back.workload_name(), "open:mmpp");
}

TEST(OpenArrivalSpecJson, ValidateRejectsBadArrivalFields) {
  core::ExperimentSpec spec;
  OpenArrivalSpec arrivals;
  arrivals.rate_per_s = 0.0;            // must be positive
  arrivals.diurnal_amplitude = 1.5;     // must be < 1
  spec.open_arrivals = arrivals;
  const auto issues = spec.validate();
  ASSERT_GE(issues.size(), 2u);
  for (const auto& issue : issues) EXPECT_EQ(issue.field, "arrivals");
}

TEST(Validation, RejectsNegativeAndNaNSizeClassWeights) {
  core::ExperimentSpec spec;
  workload::WorkloadSpec body = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  body.weight_medium = -0.5;
  spec.custom_workload = body;
  auto issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "workload");
  EXPECT_NE(issues[0].message.find("weight_medium"), std::string::npos);

  body.weight_medium = std::nan("");
  spec.custom_workload = body;
  issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("weight_medium"), std::string::npos);
}

TEST(Validation, RejectsAllZeroSizeClassWeights) {
  core::ExperimentSpec spec;
  workload::WorkloadSpec body = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  body.weight_small = body.weight_medium = body.weight_large = 0.0;
  spec.custom_workload = body;
  const auto issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "workload");
  EXPECT_NE(issues[0].message.find("sum to zero"), std::string::npos);
}

TEST(Validation, RejectsZeroBurstSize) {
  core::ExperimentSpec spec;
  workload::WorkloadSpec body = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  body.arrival = workload::WorkloadSpec::ArrivalProcess::kBursty;
  body.burst_size = 0;
  spec.custom_workload = body;
  const auto issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "workload");
  EXPECT_NE(issues[0].message.find("burst_size"), std::string::npos);
}

TEST(Validation, GeneratorThrowsOnZeroBurstSizeToo) {
  // Defense in depth for callers that bypass ExperimentSpec::validate().
  workload::WorkloadSpec body = workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
  body.arrival = workload::WorkloadSpec::ArrivalProcess::kBursty;
  body.burst_size = 0;
  body.job_count = 10;
  EXPECT_THROW((void)workload::generate_workload(body, SeedSequencer(1)),
               std::invalid_argument);
}

TEST(OpenArrivals, RunExperimentStreamsPerIteration) {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  spec.noise = net::NoiseConfig::none();
  spec.worker_count = 3;
  spec.iterations = 2;
  OpenArrivalSpec arrivals;
  arrivals.rate_per_s = 6.0;
  arrivals.duration_s = 40.0;
  spec.open_arrivals = arrivals;
  const auto reports = core::run_experiment(spec);
  ASSERT_EQ(reports.size(), 2u);
  // Identical arrival sequence per iteration (same substreams), so both
  // iterations complete the same job count; caches carried into iteration
  // 1 can only help, never lose jobs.
  EXPECT_EQ(reports[0].jobs_completed, reports[1].jobs_completed);
  EXPECT_GT(reports[0].jobs_completed, 100u);
  EXPECT_EQ(reports[0].workload, "open:poisson");
  EXPECT_EQ(reports[0].jobs_lost + reports[1].jobs_lost, 0u);
}

}  // namespace
}  // namespace dlaja
