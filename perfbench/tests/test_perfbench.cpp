// Tests of the benchmark's own code: the scheduler wrapper, the metric
// derivations, the workload specs and the shape of each mode's output.
//
//   cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "core/experiment.hpp"
#include "derive.hpp"
#include "fault/plan.hpp"
#include "harness.hpp"
#include "layer_probe.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace {

namespace dc = dlaja::core;
namespace dm = dlaja::metrics;
using perfbench::Reports;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Names of the virtual member functions a header declares (destructors
/// excluded).
std::set<std::string> virtual_names(const std::string& text) {
  std::set<std::string> names;
  const std::regex pattern(R"(virtual\s+[^;{(~]*?\b(\w+)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

std::set<std::string> override_names(const std::string& text) {
  std::set<std::string> names;
  const std::regex pattern(R"(\b(\w+)\s*\([^;]*\)\s*(const\s*)?override)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

TEST(TimedScheduler, OverridesEveryVirtualOfScheduler) {
  const std::set<std::string> virtuals = virtual_names(read_file(PERFBENCH_SCHEDULER_HEADER));
  const std::set<std::string> overrides = override_names(read_file(PERFBENCH_PROBE_HEADER));
  ASSERT_GE(virtuals.size(), 12u);  // the scan itself works
  for (const std::string& name : virtuals) {
    EXPECT_TRUE(overrides.count(name) == 1) << "TimedScheduler does not override " << name;
  }
}

/// Records every call it receives.
class Recorder final : public dlaja::sched::Scheduler {
 public:
  std::vector<std::string> calls;
  std::string name() const override { return "recorder"; }
  void attach(const dlaja::sched::SchedulerContext&) override { calls.push_back("attach"); }
  void submit(const dlaja::workflow::Job&) override { calls.push_back("submit"); }
  void on_completion(const dlaja::cluster::CompletionReport&) override {
    calls.push_back("on_completion");
  }
  void on_worker_idle(dlaja::cluster::WorkerIndex) override { calls.push_back("idle"); }
  void on_worker_capacity(dlaja::cluster::WorkerIndex) override { calls.push_back("capacity"); }
  void on_worker_recovered(dlaja::cluster::WorkerIndex) override {
    calls.push_back("recovered");
  }
  void on_assignment_void(dlaja::workflow::JobId, dlaja::cluster::WorkerIndex) override {
    calls.push_back("void");
  }
  void on_scheduler_crash(std::uint32_t) override { calls.push_back("crash"); }
  void on_scheduler_recovered(std::uint32_t) override { calls.push_back("sched_recovered"); }
  std::size_t pending_jobs() const override { return 7; }
  bool supports_sharding() const override { return true; }
};

TEST(TimedScheduler, ForwardsEveryCallAndTimesTheHotOnes) {
  auto recorder = std::make_unique<Recorder>();
  Recorder& inner = *recorder;
  perfbench::LayerSamples samples;
  perfbench::TimedScheduler wrapper(std::move(recorder), samples);
  wrapper.attach(dlaja::sched::SchedulerContext{});
  wrapper.submit(dlaja::workflow::Job{});
  wrapper.on_completion(dlaja::cluster::CompletionReport{});
  wrapper.on_worker_idle(0);
  wrapper.on_worker_capacity(0);
  wrapper.on_worker_recovered(0);
  wrapper.on_assignment_void(1, 0);
  wrapper.on_scheduler_crash(0);
  wrapper.on_scheduler_recovered(0);
  EXPECT_EQ(inner.calls,
            (std::vector<std::string>{"attach", "submit", "on_completion", "idle", "capacity",
                                      "recovered", "void", "crash", "sched_recovered"}));
  EXPECT_EQ(wrapper.name(), "recorder");
  EXPECT_EQ(wrapper.pending_jobs(), 7u);
  EXPECT_TRUE(wrapper.supports_sharding());
  EXPECT_EQ(samples.submit_ns.size(), 1u);
  EXPECT_EQ(samples.callbacks, 3u);
  EXPECT_TRUE(samples.bid_rel_error.empty());  // no metrics sink, no record
}

/// Small versions of the three workloads: same schedulers, fleets, faults
/// and arrival shapes, a fraction of the size.
dc::ExperimentSpec small_spec(const std::string& name) {
  dc::ExperimentSpec spec = perfbench::make_spec(name, 7);
  if (spec.open_arrivals) {
    spec.open_arrivals->duration_s = 1500.0;
  } else {
    spec.custom_workload->job_count = 150;
    spec.worker_count = std::min<std::size_t>(spec.worker_count, 300);
  }
  return spec;
}

TEST(TimedScheduler, WrappedRunsReportBitIdenticalToPlainRuns) {
  for (const std::string& name : perfbench::workload_names()) {
    const dc::ExperimentSpec plain = small_spec(name);
    perfbench::LayerSamples samples;
    dc::ExperimentSpec wrapped = plain;
    wrapped.make_scheduler = [&plain, &samples] {
      return std::make_unique<perfbench::TimedScheduler>(plain.scheduler.build(plain.seed),
                                                         samples);
    };
    std::string diff;
    EXPECT_TRUE(perfbench::runs_equal(dc::run_experiment(plain), dc::run_experiment(wrapped),
                                      &diff))
        << name << ": " << diff;
    EXPECT_FALSE(samples.submit_ns.empty()) << name;
    EXPECT_FALSE(samples.estimate_ns.empty()) << name;
    EXPECT_FALSE(samples.bid_rel_error.empty()) << name;
    if (plain.telemetry_interval_s > 0.0) {
      EXPECT_GT(samples.telemetry_samples, 0u) << name;
    }
  }
}

TEST(Derive, QuantileInterpolatesLinearly) {
  EXPECT_EQ(perfbench::quantile({}, 0.5), 0.0);
  EXPECT_EQ(perfbench::quantile({3.0}, 0.99), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({0.0, 10.0}, 0.99), 9.9);
  EXPECT_DOUBLE_EQ(perfbench::median({5.0, 1.0, 9.0}), 5.0);
}

dm::RunReport report(int iteration, std::uint64_t completed) {
  dm::RunReport r;
  r.iteration = iteration;
  r.jobs_submitted = completed;
  r.jobs_completed = completed;
  r.exec_time_s = 100.0 + iteration;
  r.data_load_mb = 10.0;
  r.cache_misses = 3;
  r.p50_turnaround_s = 2.0 * (iteration + 1);
  r.p99_turnaround_s = 10.0 * (iteration + 1);
  r.wall_time_s = 0.5;
  r.stats = {{"net.transfer_mb.count", 2.0 + iteration}, {"net.transfer_mb.mean", 4.0}};
  dm::WorkerRecord w;
  w.cache_hits = 3;
  w.cache_misses = 1;
  r.workers = {w};
  return r;
}

TEST(Derive, ReportsEqualIgnoresOnlyWallTime) {
  const dm::RunReport a = report(0, 10);
  dm::RunReport b = a;
  b.wall_time_s = 99.0;
  EXPECT_TRUE(perfbench::reports_equal(a, b));
  b.stats[1].second = std::nextafter(b.stats[1].second, 5.0);
  std::string diff;
  EXPECT_FALSE(perfbench::reports_equal(a, b, &diff));
  EXPECT_EQ(diff, "stats.net.transfer_mb.mean");
  dm::RunReport c = a;
  c.workers[0].cache_hits = 4;
  EXPECT_FALSE(perfbench::reports_equal(a, c, &diff));
  EXPECT_EQ(diff, "workers.cache_hits");
  dm::RunReport d = a;
  d.p99_turnaround_s = std::nextafter(d.p99_turnaround_s, 0.0);
  EXPECT_FALSE(perfbench::reports_equal(a, d, &diff));
  EXPECT_EQ(diff, "p99_turnaround_s");
  EXPECT_FALSE(perfbench::runs_equal({a}, {a, a}, &diff));
}

TEST(Derive, SummaryAddsIterationsAndAveragesPercentiles) {
  const Reports run = {report(0, 10), report(1, 10)};
  const perfbench::RunSummary s = perfbench::summarize(run, 10);
  EXPECT_EQ(s.root_jobs, 20u);
  EXPECT_DOUBLE_EQ(s.run_s, 1.0);
  EXPECT_DOUBLE_EQ(s.makespan_s, 201.0);
  EXPECT_DOUBLE_EQ(s.data_load_mb, 20.0);
  EXPECT_EQ(s.cache_misses, 6u);
  EXPECT_DOUBLE_EQ(s.turnaround_p50_s, 3.0);
  EXPECT_DOUBLE_EQ(s.turnaround_p99_s, 15.0);
  EXPECT_EQ(s.turnaround_jobs, 20u);
  EXPECT_DOUBLE_EQ(perfbench::jobs_per_s(s, true), 20.0);
  EXPECT_DOUBLE_EQ(perfbench::jobs_completed_frac(s, true), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::jobs_completed_frac(s, false), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::jobs_per_s(s, false), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::stat_sum(run, "net.transfer_mb.count"), 5.0);
  EXPECT_DOUBLE_EQ(perfbench::stat_sum(run, "absent"), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::histogram_mean(run, "net.transfer_mb"), 4.0);
  EXPECT_DOUBLE_EQ(perfbench::histogram_mean(run, "absent"), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::pooled_hit_rate(run), 0.75);
}

TEST(Derive, OutputChecksCatchLostDeadLetteredAndIncompleteRuns) {
  EXPECT_TRUE(perfbench::output_problems({report(0, 10)}, 10, true).empty());
  EXPECT_EQ(perfbench::output_problems({report(0, 9)}, 10, true).size(), 1u);
  EXPECT_TRUE(perfbench::output_problems({report(0, 9)}, 10, false).empty());
  dm::RunReport lost = report(0, 10);
  lost.jobs_lost = 2;
  EXPECT_EQ(perfbench::output_problems({lost}, 10, false).size(), 1u);
  dm::RunReport dead = report(0, 10);
  dead.jobs_dead_lettered = 1;
  EXPECT_EQ(perfbench::output_problems({dead}, 10, false).size(), 1u);  // faults or not
  EXPECT_EQ(perfbench::output_problems({dead}, 10, true).size(), 1u);
  EXPECT_EQ(perfbench::output_problems({}, 10, false).size(), 1u);
}

TEST(Derive, CompletedFractionCountsDeadLettersAgainstRootJobs) {
  // Both workers die for good early on; every retry fails, so jobs are
  // dead-lettered. Attempt completions (jobs_completed) and submissions
  // (which include retries) both differ from the root-job accounting.
  dc::ExperimentSpec spec;
  spec.scheduler = "bidding";
  spec.worker_count = 2;
  spec.iterations = 1;
  dlaja::workload::WorkloadSpec body =
      dlaja::workload::make_workload_spec(dlaja::workload::JobConfig::kAllDiffSmall);
  body.job_count = 40;
  spec.custom_workload = body;
  spec.faults = dlaja::fault::FaultPlan::parse("crash:w=0,at=20;crash:w=1,at=30");
  spec.lifecycle.max_attempts = 2;
  const dlaja::LogLevel level = dlaja::log_level();
  dlaja::set_log_level(dlaja::LogLevel::kError);  // one warning per dead letter
  const Reports run = dc::run_experiment(spec);
  dlaja::set_log_level(level);
  ASSERT_EQ(run.size(), 1u);
  const dm::RunReport& r = run[0];
  ASSERT_GT(r.jobs_dead_lettered, 0u);
  EXPECT_EQ(r.jobs_lost, 0u);
  EXPECT_GT(r.jobs_submitted, 40u);  // retries count as submissions
  // A dead letter fails the output check whether or not the plan has faults.
  EXPECT_FALSE(perfbench::output_problems(run, 40, false).empty());
  EXPECT_FALSE(perfbench::output_problems(run, 40, true).empty());
  const perfbench::RunSummary s = perfbench::summarize(run, 40);
  EXPECT_DOUBLE_EQ(perfbench::jobs_completed_frac(s, true),
                   static_cast<double>(40 - r.jobs_dead_lettered) / 40.0);
  EXPECT_LT(perfbench::jobs_completed_frac(s, true), 1.0);
}

TEST(Workloads, SpecsAreValidSingleShardAndSeededAsDocumented) {
  for (const std::string& name : perfbench::workload_names()) {
    const dc::ExperimentSpec spec = perfbench::make_spec(name, 5);
    EXPECT_TRUE(spec.validate().empty()) << name;
    EXPECT_EQ(spec.shards, 1u) << name;
    const std::uint64_t simulated =
        name == "saturation16_cached4" ? perfbench::kDefaultSeed : std::uint64_t{5};
    EXPECT_EQ(spec.seed, simulated) << name;
  }
  EXPECT_THROW((void)perfbench::make_spec("nope", 1), std::invalid_argument);
}

TEST(Workloads, SaturationStreamsTheOpenSaturationScenario) {
  const dc::ExperimentSpec scenario = dc::ExperimentSpec::from_json(dlaja::json::parse(
      read_file(std::string(PERFBENCH_ROOT) + "/examples/scenarios/open_saturation.json")));
  const dc::ExperimentSpec spec = perfbench::make_spec("saturation16_cached4", 42);
  EXPECT_EQ(spec.scheduler, scenario.scheduler);
  EXPECT_EQ(spec.worker_count, scenario.worker_count);
  EXPECT_EQ(spec.fleet, scenario.fleet);
  EXPECT_EQ(spec.seed, scenario.seed);
  EXPECT_EQ(spec.noise.spec(), scenario.noise.spec());
  EXPECT_EQ(spec.telemetry_interval_s, scenario.telemetry_interval_s);
  EXPECT_EQ(spec.telemetry_capacity, scenario.telemetry_capacity);
  EXPECT_EQ(*spec.custom_workload, *scenario.custom_workload);
  dlaja::workload::OpenArrivalSpec arrivals = *spec.open_arrivals;
  EXPECT_LT(arrivals.duration_s, scenario.open_arrivals->duration_s);
  arrivals.duration_s = scenario.open_arrivals->duration_s;
  EXPECT_EQ(arrivals, *scenario.open_arrivals);
}

/// Metric names BENCHMARK.json lists under `key`.
std::set<std::string> benchmark_names(const std::string& key) {
  const dlaja::json::Value doc =
      dlaja::json::parse(read_file(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json"));
  std::set<std::string> names;
  for (const dlaja::json::Value& metric : doc.as_object().find(key)->as_array()) {
    names.insert(metric.as_object().find("name")->as_string());
  }
  return names;
}

/// Options that run `mode` on a small version of `workload`.
perfbench::Options small_options(const std::string& mode, const std::string& workload) {
  perfbench::Options options;
  options.mode = mode;
  options.workload = workload;
  options.seed = 11;
  options.seconds = 0.0;
  options.customize = [workload](dc::ExperimentSpec& spec) {
    const dc::ExperimentSpec small = small_spec(workload);
    spec.worker_count = small.worker_count;
    spec.custom_workload = small.custom_workload;
    spec.open_arrivals = small.open_arrivals;
  };
  return options;
}

TEST(Modes, TracedModeReportsEveryPerLayerMetric) {
  for (const std::string& name : perfbench::workload_names()) {
    const dlaja::json::Value out = perfbench::run_mode(small_options("traced", name));
    const dlaja::json::Object& o = out.as_object();
    EXPECT_TRUE(o.find("problems")->as_array().empty()) << name << ": " << out.dump();
    std::set<std::string> layers;
    for (const auto& [metric, value] : o.find("layers")->as_object()) {
      EXPECT_TRUE(value.is_number() && std::isfinite(value.as_number())) << name << metric;
      layers.insert(metric);
    }
    EXPECT_EQ(layers, benchmark_names("per_layer")) << name;
    EXPECT_GE(o.find("traced_run_s")->as_array().size(), 3u) << name;
    EXPECT_EQ(o.find("sim_seed")->as_number(),
              name == "saturation16_cached4" ? 42.0 : 11.0) << name;
  }
}

TEST(Modes, UntracedModesReportWhatTheEndToEndMetricsNeed) {
  std::set<std::string> sim_metrics;
  for (const std::string& name : benchmark_names("end_to_end")) {
    if (name.rfind("sim_", 0) == 0 || name == "jobs_completed_frac") sim_metrics.insert(name);
  }
  for (const std::string& name : perfbench::workload_names()) {
    for (const char* mode : {"e2e", "rss"}) {
      const dlaja::json::Value out = perfbench::run_mode(small_options(mode, name));
      const dlaja::json::Object& o = out.as_object();
      // Problems would include a set-up mirror that differs from
      // run_experiment: the e2e mode runs it on every workload.
      EXPECT_TRUE(o.find("problems")->as_array().empty()) << name << ": " << out.dump();
      EXPECT_EQ(o.find("failed_runs")->as_number(), 0.0);
      const dlaja::json::Object& summary = o.find("summary")->as_object();
      for (const std::string& metric : sim_metrics) {
        EXPECT_TRUE(summary.contains(metric)) << metric;
      }
      EXPECT_EQ(summary.find("jobs_completed_frac")->as_number(), 1.0);
      if (std::string(mode) == "e2e") {
        EXPECT_GE(o.find("jobs_per_s")->as_array().size(), 3u);
        EXPECT_GE(o.find("setup_s")->as_array().size(), 3u);
        // Warm-up, the set-up mirror and at least three measured runs.
        EXPECT_GE(o.find("runs")->as_number(), 5.0);
      } else {
        EXPECT_EQ(o.find("runs")->as_number(), 1.0);
        EXPECT_GT(o.find("peak_rss_mb")->as_number(), 1.0);
      }
    }
  }
}

/// A scheduler whose first decision throws, as an engine logic error or a
/// telemetry watchdog trip would.
class ThrowingScheduler final : public dlaja::sched::Scheduler {
 public:
  std::string name() const override { return "throwing"; }
  void attach(const dlaja::sched::SchedulerContext&) override {}
  void submit(const dlaja::workflow::Job&) override {
    throw std::runtime_error("injected scheduler failure");
  }
};

TEST(Modes, ARunThatThrowsFailsItsCheckInsteadOfTheProcess) {
  for (const char* mode : {"e2e", "rss", "traced"}) {
    perfbench::Options options = small_options(mode, "broadcast256_faults");
    options.customize = [](dc::ExperimentSpec& spec) {
      spec.custom_workload->job_count = 20;
      spec.make_scheduler = [] { return std::make_unique<ThrowingScheduler>(); };
    };
    const dlaja::json::Value out = perfbench::run_mode(options);
    const dlaja::json::Object& o = out.as_object();
    const dlaja::json::Array& problems = o.find("problems")->as_array();
    ASSERT_EQ(problems.size(), 1u) << mode;
    EXPECT_NE(problems[0].as_string().find("injected scheduler failure"), std::string::npos);
    EXPECT_EQ(o.find("runs")->as_number(), 1.0) << mode;  // measuring stopped
    EXPECT_EQ(o.find("failed_runs")->as_number(), 1.0) << mode;
    const dlaja::json::Object& summary = o.find("summary")->as_object();
    EXPECT_EQ(summary.find("jobs_completed_frac")->as_number(), 0.0) << mode;
    EXPECT_EQ(summary.find("root_jobs")->as_number(), 60.0) << mode;  // 20 x 3 iterations
    if (std::string(mode) == "traced") {
      for (const auto& [metric, value] : o.find("layers")->as_object()) {
        EXPECT_TRUE(std::isfinite(value.as_number())) << metric;
      }
    }
  }
}

}  // namespace
