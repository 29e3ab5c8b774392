// dlaja_run — general experiment runner.
//
// Runs (scheduler × workload × fleet) for N carried iterations and prints
// the run reports; optionally dumps raw rows as CSV and per-run concurrency
// timelines.
//
//   dlaja_run --scheduler bidding --workload 80%_large --fleet fast-slow
//   dlaja_run --scheduler baseline --jobs 240 --iters 5 --noise lognormal:0.5
//   dlaja_run --scheduler bidding --estimation historic --csv runs.csv
//   dlaja_run --scenario examples/scenarios/paper_bidding.json
//   dlaja_run --scenario federated_2x.json --set scheduler.fanout=cached:8
//             --set scheduler.federation.partitions=4
//
// Spec sources compose by one precedence rule: flags < scenario < --set.
// Flags fill scenario keys the file leaves out; --set dotted-path
// overrides beat both.

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "metrics/timeline.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace dlaja;

int main(int argc, char** argv) {
  ArgParser args("dlaja_run",
                 "run a locality-scheduling experiment and print the paper's metrics");
  args.add_option("scenario", "",
                  "run a scenario file (JSON); spec flags fill keys the file "
                  "leaves out (precedence: flags < scenario < --set), and output "
                  "flags (--csv, --timeline, --trace, ...) still apply");
  args.add_multi_option(
      "set",
      "dotted-path scenario override, e.g. --set scheduler.fanout=cached:8 or "
      "--set scheduler.federation.partitions=2 or --set workers=16; repeatable, "
      "applied last (precedence: flags < scenario < --set); values parse as "
      "JSON when possible, else as strings");
  args.add_option("scheduler", "bidding",
                  "scheduler spec, e.g. bidding, bidding:fanout=probe:4, "
                  "baseline:declines=2, bidding:fed.partitions=2,fed.spill=1.5 "
                  "(see sched::scheduler_names())");
  args.add_option("workload", "80%_large",
                  "job config: all_diff_equal|all_diff_large|all_diff_small|80%_large|80%_small");
  args.add_option("fleet", "all-equal", "fleet preset: all-equal|one-fast|one-slow|fast-slow");
  args.add_option("workers", "5", "fleet size");
  args.add_option("jobs", "120", "jobs per run");
  args.add_option("iters", "3", "iterations with cache carry-over");
  args.add_option("seed", "42", "master seed");
  args.add_option("noise", "throttle:0.1,0.3", "noise scheme for effective speeds");
  args.add_option("faults", "",
                  "fault plan, e.g. \"crash:w=1,at=15,down=30;drop:p=0.01\" "
                  "(crash | crashes | sched_crash | degrade | drop | dup "
                  "clauses, ';'-separated)");
  args.add_option("estimation", "nominal", "bid speeds: nominal | historic");
  args.add_option("csv", "", "write raw run rows to this file");
  args.add_option("timeline", "", "write the last run's concurrency series to this file");
  args.add_option("trace", "", "write a Chrome trace-event JSON of a detail run to this file");
  args.add_option("trace-csv", "", "write the detail run's trace events as CSV to this file");
  args.add_option("log-level", "warn", "log verbosity: trace|debug|info|warn|error|off");
  args.add_option("telemetry-interval", "",
                  "sample in-run telemetry gauges every this many simulated seconds "
                  "(0 = off); also overrides a scenario's 'telemetry' interval");
  args.add_option("telemetry-csv", "",
                  "write the detail run's telemetry series to this file (implies "
                  "telemetry at the default 30s cadence if no interval is given)");
  args.add_option("telemetry-json", "",
                  "write the detail run's telemetry series as JSON to this file");
  args.add_flag("no-carry", "do not carry caches across iterations");
  args.add_flag("flat-latency",
                "zero all latency jitter (with --noise none, no per-message random "
                "draw remains)");
  if (!args.parse(argc, argv)) return 1;
  set_log_level(parse_log_level(args.get("log-level")));

  // Assemble ONE scenario document from the three spec sources, weakest
  // first: spec flags, then the scenario file, then --set overrides. The
  // merged document flows through ExperimentSpec::from_json exactly like a
  // scenario file would, so every surface shares one parser and one set of
  // error messages.
  core::ExperimentSpec spec;
  const bool have_scenario = !args.get("scenario").empty();
  try {
    json::Object doc;
    if (have_scenario) {
      std::ifstream in(args.get("scenario"));
      if (!in) {
        std::cerr << "cannot open " << args.get("scenario") << "\n";
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      const json::Value parsed = json::parse(text.str());
      if (!parsed.is_object()) {
        throw std::invalid_argument("scenario: document must be a JSON object");
      }
      doc = parsed.as_object();
    }
    // Flags are the weakest layer: with a scenario, a flag fills its key
    // only when explicitly given AND the file leaves the key out; without
    // one, the flag defaults build the whole document.
    const auto fill = [&](const char* flag, const std::string& key, const json::Value& value) {
      if (have_scenario ? (args.given(flag) && !doc.contains(key)) : true) doc[key] = value;
    };
    fill("scheduler", "scheduler", json::Value{args.get("scheduler")});
    fill("workload", "workload", json::Value{args.get("workload")});
    fill("jobs", "jobs", json::Value{args.get_int("jobs")});
    fill("fleet", "fleet", json::Value{args.get("fleet")});
    fill("workers", "workers", json::Value{args.get_int("workers")});
    fill("iters", "iterations", json::Value{args.get_int("iters")});
    fill("seed", "seed", json::Value{args.get_int("seed")});
    fill("noise", "noise", json::Value{args.get("noise")});
    fill("estimation", "estimation", json::Value{args.get("estimation")});
    if (!args.get("faults").empty()) {
      fill("faults", "faults", json::Value{args.get("faults")});
    }
    if (args.given("no-carry")) fill("no-carry", "carry_cache", json::Value{false});

    // --set overrides beat both layers. Paths into a config-string
    // "scheduler" first expand it to the object form so dotted scheduler
    // keys compose with either wire form.
    for (const std::string& entry : args.get_all("set")) {
      const std::size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "--set wants path=value, got '" << entry << "'\n";
        return 1;
      }
      const std::string path = entry.substr(0, eq);
      const std::string text = entry.substr(eq + 1);
      std::vector<std::string> segments;
      for (std::size_t pos = 0; pos <= path.size();) {
        const std::size_t dot = path.find('.', pos);
        segments.push_back(
            path.substr(pos, dot == std::string::npos ? std::string::npos : dot - pos));
        if (segments.back().empty()) {
          std::cerr << "--set: empty path segment in '" << path << "'\n";
          return 1;
        }
        pos = dot == std::string::npos ? path.size() + 1 : dot + 1;
      }
      if (segments.size() > 1 && segments.front() == "scheduler") {
        const json::Value* current = doc.find("scheduler");
        if (current == nullptr || current->is_string()) {
          const sched::SchedulerSpec base =
              current == nullptr ? sched::SchedulerSpec{}
                                 : sched::SchedulerSpec::parse(current->as_string());
          if (!base.parse_error().empty()) {
            throw std::invalid_argument(base.parse_error());
          }
          json::Object expanded;
          expanded["type"] = base.type();
          for (const auto& [okey, ovalue] : base.options()) expanded[okey] = ovalue;
          doc["scheduler"] = json::Value{std::move(expanded)};
        }
      }
      // Values parse as JSON when they can (numbers, bools, arrays), and
      // fall back to plain strings ("cached:8", "80%_large", fault plans).
      json::Value leaf;
      try {
        leaf = json::parse(text);
      } catch (const std::invalid_argument&) {
        leaf = json::Value{text};
      }
      json::Object* cursor = &doc;
      std::vector<json::Object> spine;  // copies of intermediate objects
      spine.reserve(segments.size());
      for (std::size_t depth = 0; depth + 1 < segments.size(); ++depth) {
        json::Value& slot = (*cursor)[segments[depth]];
        if (!slot.is_null() && !slot.is_object()) {
          std::cerr << "--set: '" << segments[depth] << "' in '" << path
                    << "' is not an object\n";
          return 1;
        }
        spine.push_back(slot.is_object() ? slot.as_object() : json::Object{});
        cursor = &spine.back();
      }
      (*cursor)[segments.back()] = std::move(leaf);
      // Fold the copied spine back up into the document.
      for (std::size_t depth = spine.size(); depth-- > 0;) {
        json::Object* parent = depth == 0 ? &doc : &spine[depth - 1];
        (*parent)[segments[depth]] = json::Value{std::move(spine[depth])};
      }
    }

    spec = core::ExperimentSpec::from_json(json::Value{std::move(doc)});
  } catch (const std::invalid_argument& error) {
    if (have_scenario) std::cerr << args.get("scenario") << ": ";
    std::cerr << error.what() << "\n";
    return 1;
  }
  if (!spec.name.empty()) std::cout << "scenario: " << spec.name << "\n";

  // --flat-latency / --telemetry-interval apply on top of either source, so
  // one scenario file can be probed with telemetry (the CI telemetry-smoke
  // job does).
  if (args.given("flat-latency")) spec.flat_control_plane = true;
  if (args.given("telemetry-interval")) {
    spec.telemetry_interval_s = args.get_double("telemetry-interval");
  } else if (spec.telemetry_interval_s == 0.0 &&
             (args.given("telemetry-csv") || args.given("telemetry-json"))) {
    // Asking for a telemetry export opts in; sample at the default cadence.
    spec.telemetry_interval_s = core::kTelemetryDefaultIntervalS;
  }

  const auto issues = spec.validate();
  if (!issues.empty()) {
    std::cerr << "invalid experiment spec:\n";
    for (const auto& issue : issues) {
      std::cerr << "  " << issue.field << ": " << issue.message << "\n";
    }
    return 1;
  }
  if (!spec.faults.empty()) std::cout << "fault plan: " << spec.faults.describe() << "\n";

  std::vector<metrics::RunReport> reports;
  try {
    reports = core::run_experiment(spec);
  } catch (const std::runtime_error& error) {
    // The telemetry watchdog aborts the run by throwing; the series tail has
    // already been dumped to stderr by the engine.
    std::cerr << error.what() << "\n";
    return 2;
  }

  const bool with_faults = !spec.faults.empty();
  TextTable table(spec.scheduler.to_config_string() + " on " + spec.workload_name() + " / " +
                  spec.fleet_name());
  std::vector<std::string> header = {"iter",      "exec (s)",      "misses",  "data (MB)",
                                     "completed", "alloc lat (s)", "hit rate"};
  if (with_faults) {
    header.push_back("retried");
    header.push_back("dead");
  }
  table.set_header(header);
  for (const auto& r : reports) {
    std::vector<std::string> row = {std::to_string(r.iteration), fmt_fixed(r.exec_time_s, 1),
                                    std::to_string(r.cache_misses), fmt_fixed(r.data_load_mb, 1),
                                    std::to_string(r.jobs_completed),
                                    fmt_fixed(r.avg_alloc_latency_s, 3),
                                    fmt_percent(r.cache_hit_rate)};
    if (with_faults) {
      row.push_back(std::to_string(r.jobs_retried));
      row.push_back(std::to_string(r.jobs_dead_lettered));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  if (spec.open_arrivals) {
    // Open-arrival runs are about steady state, not batch makespan: report
    // sustained throughput and the sojourn distribution the streaming
    // engine folded into the registry (percentiles via the log-linear
    // histogram; p99/p999 live in the telemetry series / --telemetry-csv).
    for (const auto& r : reports) {
      const double jps = r.exec_time_s > 0.0
                             ? static_cast<double>(r.jobs_completed) / r.exec_time_s
                             : 0.0;
      std::cout << "steady state (iter " << r.iteration << "): " << fmt_fixed(jps, 1)
                << " jobs/s sustained, sojourn mean=" << fmt_fixed(r.stat("job.sojourn_s.mean"), 3)
                << "s p50=" << fmt_fixed(r.stat("job.sojourn_s.p50"), 3)
                << "s p95=" << fmt_fixed(r.stat("job.sojourn_s.p95"), 3)
                << "s max=" << fmt_fixed(r.stat("job.sojourn_s.max"), 3) << "s over "
                << static_cast<std::uint64_t>(r.stat("job.sojourn_s.count")) << " jobs\n";
    }
  }

  if (with_faults) {
    // Job conservation across all iterations: every submission is a root or
    // a retry, and every attempt ends acked, voided-then-retried, or
    // dead-lettered. `lost` counts attempts that did none of those by the
    // end of the run; the fault-smoke CI gate pins it at zero.
    std::uint64_t submitted = 0, completed = 0, retried = 0, dead = 0, lost = 0;
    for (const auto& r : reports) {
      submitted += r.jobs_submitted;
      completed += r.jobs_completed;
      retried += r.jobs_retried;
      dead += r.jobs_dead_lettered;
      lost += r.jobs_lost;
    }
    std::cout << "fault summary: submitted=" << submitted << " completed=" << completed
              << " retried=" << retried << " dead_lettered=" << dead << " lost=" << lost
              << "\n";
  }

  if (!args.get("csv").empty()) {
    std::ofstream out(args.get("csv"));
    if (!out) {
      std::cerr << "cannot open " << args.get("csv") << "\n";
      return 1;
    }
    metrics::write_reports_csv(out, reports);
    std::cout << "raw rows -> " << args.get("csv") << "\n";
  }

  const std::string timeline_path = args.get("timeline");
  const std::string trace_path = args.get("trace");
  const std::string trace_csv_path = args.get("trace-csv");
  const std::string telemetry_csv_path = args.get("telemetry-csv");
  const std::string telemetry_json_path = args.get("telemetry-json");
  const bool want_telemetry = spec.telemetry_interval_s > 0.0;
  if (!timeline_path.empty() || !trace_path.empty() || !trace_csv_path.empty() ||
      want_telemetry) {
    // Re-run one iteration standalone to extract per-run detail (the
    // experiment loop only keeps aggregate reports).
    core::EngineConfig config;
    config.seed = spec.seed;
    config.noise = spec.noise;
    config.estimation = spec.estimation;
    config.probe_speeds = spec.probe_speeds;
    config.faults = spec.faults;
    config.lifecycle = spec.lifecycle;
    config.coalesce_deliveries = spec.coalesce_deliveries;
    if (want_telemetry) {
      config.telemetry.interval = ticks_from_seconds(spec.telemetry_interval_s);
      config.telemetry.capacity = spec.telemetry_capacity;
      config.telemetry.watchdog = spec.telemetry_watchdog;
    }
    const workload::WorkloadSpec wspec =
        spec.custom_workload ? *spec.custom_workload : workload::make_workload_spec(spec.job_config);
    workload::GeneratedWorkload workload;
    if (!spec.open_arrivals) {
      workload = workload::generate_workload(wspec, SeedSequencer(spec.seed));
    }
    std::vector<cluster::WorkerConfig> fleet = cluster::make_fleet(spec.fleet, spec.worker_count);
    if (spec.flat_control_plane) {
      for (cluster::WorkerConfig& cfg : fleet) cfg.latency_jitter_ms = 0.0;
      config.master_link.latency_jitter_ms = 0.0;
    }
    core::Engine engine(std::move(fleet), spec.scheduler.build(spec.seed), config);
    obs::Tracer tracer;
    if (!trace_path.empty() || !trace_csv_path.empty()) {
      tracer.set_enabled(true);
      engine.simulator().set_tracer(&tracer);
    }
    try {
      if (spec.open_arrivals) {
        const SeedSequencer workload_seeds(spec.seed);
        workload::OpenArrivalStream stream(wspec, *spec.open_arrivals, workload_seeds);
        (void)engine.run_stream([&stream] { return stream.next(); });
      } else {
        (void)engine.run(workload.jobs);
      }
    } catch (const std::runtime_error& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }

    if (!timeline_path.empty()) {
      std::ofstream out(timeline_path);
      if (!out) {
        std::cerr << "cannot open " << timeline_path << "\n";
        return 1;
      }
      const Tick horizon = engine.metrics().last_completion();
      metrics::write_concurrency_csv(
          out, metrics::concurrency_series(engine.metrics(), engine.worker_count(), horizon,
                                           horizon / 200 + 1));
      std::cout << "concurrency series -> " << timeline_path << "\n";
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "cannot open " << trace_path << "\n";
        return 1;
      }
      obs::write_chrome_trace(out, tracer);
      std::cout << tracer.events().size() << " trace events -> " << trace_path << "\n";
    }
    if (!trace_csv_path.empty()) {
      std::ofstream out(trace_csv_path);
      if (!out) {
        std::cerr << "cannot open " << trace_csv_path << "\n";
        return 1;
      }
      obs::write_trace_csv(out, tracer);
      std::cout << tracer.events().size() << " trace events -> " << trace_csv_path << "\n";
    }
    if (want_telemetry && engine.telemetry()) {
      const obs::TelemetryTable& series = *engine.telemetry();
      // The watchdog throws out of engine.run() on a violation, so reaching
      // this line means every sampled invariant held.
      std::cout << "telemetry: " << series.names.size() << " series x " << series.ticks.size()
                << " samples, watchdog " << (config.telemetry.watchdog ? "clean" : "off")
                << "\n";
      if (spec.open_arrivals && !series.empty()) {
        // Final sampled values of the streaming gauges: the steady-state
        // sojourn tail and sustained throughput at the end of the horizon.
        const auto last_of = [&](const std::string& name) {
          for (std::size_t s = 0; s < series.names.size(); ++s) {
            if (series.names[s] == name && !series.values[s].empty()) {
              return series.values[s].back();
            }
          }
          return 0.0;
        };
        std::cout << "steady state @ end: " << fmt_fixed(last_of("master.throughput_jps"), 1)
                  << " jobs/s, sojourn p50=" << fmt_fixed(last_of("job.sojourn_p50_s"), 3)
                  << "s p99=" << fmt_fixed(last_of("job.sojourn_p99_s"), 3)
                  << "s p999=" << fmt_fixed(last_of("job.sojourn_p999_s"), 3) << "s\n";
      }
      if (!telemetry_csv_path.empty()) {
        std::ofstream out(telemetry_csv_path);
        if (!out) {
          std::cerr << "cannot open " << telemetry_csv_path << "\n";
          return 1;
        }
        obs::write_telemetry_csv(out, series);
        std::cout << "telemetry series -> " << telemetry_csv_path << "\n";
      }
      if (!telemetry_json_path.empty()) {
        std::ofstream out(telemetry_json_path);
        if (!out) {
          std::cerr << "cannot open " << telemetry_json_path << "\n";
          return 1;
        }
        obs::write_telemetry_json(out, series);
        std::cout << "telemetry series -> " << telemetry_json_path << "\n";
      }
    }
  }
  return 0;
}
