// dlaja_trace — workload-trace utilities.
//
//   dlaja_trace generate --workload 80%_large --jobs 200 --out trace.csv
//   dlaja_trace info trace.csv
//   dlaja_trace info run.trace.json
//   dlaja_trace replay trace.csv --scheduler bidding --fleet fast-slow
//   dlaja_trace profile trace.csv --scheduler bidding --top 10
//   dlaja_trace profile run.trace.json
//   dlaja_trace synth-swf --jobs 500 --out log.swf
//   dlaja_trace convert-swf log.swf --out trace.csv --time-scale 0.1
//   dlaja_trace timeseries run.telemetry.csv

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "core/engine.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/spec.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "workload/swf.hpp"
#include "workload/trace_io.hpp"

using namespace dlaja;

namespace {

int cmd_generate(const ArgParser& args) {
  workload::WorkloadSpec spec =
      workload::make_workload_spec(workload::job_config_from_name(args.get("workload")));
  spec.job_count = static_cast<std::size_t>(args.get_int("jobs"));
  spec.arrival_mean_s = args.get_double("arrival");
  const auto workload =
      workload::generate_workload(spec, SeedSequencer(static_cast<std::uint64_t>(args.get_int("seed"))));
  const std::string out = args.get("out");
  workload::save_trace_file(out, workload);
  std::cout << "wrote " << workload.jobs.size() << " jobs, "
            << workload.catalog.count() << " repositories ("
            << fmt_fixed(workload.unique_mb() / 1024.0, 2) << " GB distinct) -> " << out
            << "\n";
  return 0;
}

[[nodiscard]] bool is_json(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

/// Imports an exported Chrome trace (e.g. from `dlaja_run --trace`) into
/// `tracer`; false when the file cannot be read. The exporter's tracer had
/// the same default cap, so the import drops nothing and dropped() counts
/// the exporter's drops.
[[nodiscard]] bool import_trace(const std::string& path, obs::Tracer& tracer) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  (void)obs::read_chrome_trace(in, tracer);
  return true;
}

/// Summary of an exported Chrome trace: events, simulated span and the
/// events its exporter dropped.
int cmd_trace_info(const std::string& path) {
  obs::Tracer tracer;
  if (!import_trace(path, tracer)) return 1;
  Tick first = kNeverTick, last = 0;
  for (const obs::TraceEvent& event : tracer.events()) {
    first = std::min(first, event.ts);
    last = std::max(last, event.ts + event.dur);
  }
  TextTable table("trace: " + path);
  table.add_row({"events", std::to_string(tracer.events().size())});
  const Tick span = first < last ? last - first : 0;
  table.add_row({"span (s)", fmt_fixed(seconds_from_ticks(span), 1)});
  table.add_row({"dropped events", std::to_string(tracer.dropped())});
  table.print(std::cout);
  if (tracer.dropped() > 0) {
    std::cout << "note: " << tracer.dropped() << " events were dropped (buffer full)\n";
  }
  return 0;
}

int cmd_info(const std::string& path) {
  if (is_json(path)) return cmd_trace_info(path);
  const auto workload = workload::load_trace_file(path);
  std::map<storage::ResourceId, int> repetition;
  MegaBytes smallest = 0.0, largest = 0.0;
  for (const auto& job : workload.jobs) {
    if (!job.needs_resource()) continue;
    if (repetition.empty()) {
      smallest = largest = job.resource_size_mb;
    } else {
      smallest = std::min(smallest, job.resource_size_mb);
      largest = std::max(largest, job.resource_size_mb);
    }
    ++repetition[job.resource];
  }
  int hottest = 0;
  for (const auto& [id, count] : repetition) hottest = std::max(hottest, count);
  // A trace of pure-compute jobs has no repository sizes to summarize;
  // report n/a instead of the scan's seed values.
  const bool has_resources = !repetition.empty();

  TextTable table("trace: " + path);
  table.add_row({"jobs", std::to_string(workload.jobs.size())});
  table.add_row({"distinct repositories", std::to_string(repetition.size())});
  table.add_row({"naive volume (MB)", fmt_fixed(workload.naive_mb(), 1)});
  table.add_row({"distinct volume (MB)", fmt_fixed(workload.unique_mb(), 1)});
  table.add_row({"smallest repo (MB)", has_resources ? fmt_fixed(smallest, 1) : "n/a"});
  table.add_row({"largest repo (MB)", has_resources ? fmt_fixed(largest, 1) : "n/a"});
  table.add_row({"hottest repo (jobs)", has_resources ? std::to_string(hottest) : "n/a"});
  if (!workload.jobs.empty()) {
    table.add_row({"span (s)", fmt_fixed(seconds_from_ticks(workload.jobs.back().created_at), 1)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_synth_swf(const ArgParser& args) {
  std::ofstream out(args.get("out"));
  if (!out) {
    std::cerr << "cannot open " << args.get("out") << "\n";
    return 1;
  }
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs"));
  workload::write_synthetic_swf(out, jobs,
                                static_cast<std::size_t>(args.get_int("executables")),
                                static_cast<std::uint64_t>(args.get_int("seed")));
  std::cout << "wrote synthetic SWF log (" << jobs << " jobs) -> " << args.get("out")
            << "\n";
  return 0;
}

int cmd_convert_swf(const ArgParser& args, const std::string& path) {
  workload::SwfOptions options;
  options.time_scale = args.get_double("time-scale");
  options.max_jobs = static_cast<std::size_t>(args.get_int("jobs"));
  const auto workload = workload::load_swf_file(path, options);
  workload::save_trace_file(args.get("out"), workload);
  std::cout << "converted " << workload.jobs.size() << " SWF jobs over "
            << workload.catalog.count() << " application datasets ("
            << fmt_fixed(workload.unique_mb() / 1024.0, 2) << " GB distinct) -> "
            << args.get("out") << "\n";
  return 0;
}

/// The engine `replay` and `profile` run a trace on: --workers workers of
/// the --fleet preset under the --scheduler spec, engine and scheduler both
/// seeded with --seed. Null, after printing the spec's issues the way
/// dlaja_run does, when the spec is invalid for that fleet.
std::unique_ptr<core::Engine> replay_engine(const ArgParser& args) {
  const auto workers = static_cast<std::size_t>(args.get_int("workers"));
  const sched::SchedulerSpec scheduler(args.get("scheduler"));
  const std::vector<sched::SpecIssue> issues = scheduler.validate(workers);
  if (!issues.empty()) {
    std::cerr << "invalid scheduler spec:\n";
    for (const sched::SpecIssue& issue : issues) {
      std::cerr << "  " << issue.field << ": " << issue.message << "\n";
    }
    return nullptr;
  }
  core::EngineConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  return std::make_unique<core::Engine>(
      cluster::make_fleet(cluster::fleet_preset_from_name(args.get("fleet")), workers),
      scheduler.build(config.seed), config);
}

int cmd_replay(const ArgParser& args, const std::string& path) {
  const auto workload = workload::load_trace_file(path);
  const std::unique_ptr<core::Engine> engine = replay_engine(args);
  if (!engine) return 1;
  const auto report = engine->run(workload.jobs);
  TextTable table("replay: " + path + " under " + args.get("scheduler"));
  table.add_row({"exec time (s)", fmt_fixed(report.exec_time_s, 1)});
  table.add_row({"cache misses", std::to_string(report.cache_misses)});
  table.add_row({"data load (MB)", fmt_fixed(report.data_load_mb, 1)});
  table.add_row({"jobs completed", std::to_string(report.jobs_completed)});
  table.print(std::cout);
  return 0;
}

/// MSER-style warmup truncation: the steady-state window [d, n) is the one
/// minimizing the standard error of its mean, var(x[d..n)) / (n - d), over
/// truncation points d in [0, n/2]. Returns the chosen d (0 = no warmup).
std::size_t steady_state_start(const std::vector<double>& x) {
  const std::size_t n = x.size();
  if (n < 4) return 0;
  // Suffix sums make every candidate O(1).
  std::vector<double> sum(n + 1, 0.0), sumsq(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    sum[i] = sum[i + 1] + x[i];
    sumsq[i] = sumsq[i + 1] + x[i] * x[i];
  }
  std::size_t best = 0;
  double best_stat = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d <= n / 2; ++d) {
    const double m = static_cast<double>(n - d);
    const double mean = sum[d] / m;
    const double var = std::max(0.0, sumsq[d] / m - mean * mean);
    const double stat = var / m;
    if (stat < best_stat) {
      best_stat = stat;
      best = d;
    }
  }
  return best;
}

/// Renders a series as a fixed-width sparkline (U+2581..U+2588), averaging
/// samples into `width` buckets and scaling to the series' own min..max.
std::string sparkline(const std::vector<double>& x, std::size_t width) {
  static const char* kBlocks[8] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
  if (x.empty()) return "";
  const auto [lo_it, hi_it] = std::minmax_element(x.begin(), x.end());
  const double lo = *lo_it, hi = *hi_it;
  const std::size_t buckets = std::min(width, x.size());
  std::string out;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t begin = b * x.size() / buckets;
    const std::size_t end = std::max(begin + 1, (b + 1) * x.size() / buckets);
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += x[i];
    const double v = acc / static_cast<double>(end - begin);
    // A flat series renders mid-height rather than dividing by a zero span.
    const double unit = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    const int level = std::clamp(static_cast<int>(unit * 8.0), 0, 7);
    out += kBlocks[level];
  }
  return out;
}

std::string fmt_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

int cmd_timeseries(const ArgParser& args, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  const auto split = [](const std::string& line) {
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    return fields;
  };
  std::string line;
  if (!std::getline(in, line)) {
    std::cerr << path << ": empty file\n";
    return 1;
  }
  const std::vector<std::string> header = split(line);
  if (header.size() < 2 || header[0] != "tick" || header[1] != "time_s") {
    std::cerr << path << ": not a telemetry CSV (expected header tick,time_s,<series...>)\n";
    return 1;
  }
  const std::size_t series_count = header.size() - 2;
  std::vector<double> times;
  std::vector<std::vector<double>> series(series_count);
  std::size_t row_index = 1;
  while (std::getline(in, line)) {
    ++row_index;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split(line);
    if (fields.size() != header.size()) {
      std::cerr << path << ":" << row_index << ": expected " << header.size()
                << " fields, got " << fields.size() << "\n";
      return 1;
    }
    times.push_back(std::stod(fields[1]));
    for (std::size_t s = 0; s < series_count; ++s) {
      series[s].push_back(std::stod(fields[s + 2]));
    }
  }
  if (times.empty()) {
    std::cerr << path << ": no samples\n";
    return 1;
  }
  std::cout << series_count << " series x " << times.size() << " samples, "
            << fmt_value(times.front()) << "s .. " << fmt_value(times.back()) << "s\n";

  TextTable table("timeseries: " + path);
  table.set_header({"series", "min", "max", "mean", "stddev", "warmup (s)", "steady mean"});
  for (std::size_t s = 0; s < series_count; ++s) {
    const std::vector<double>& x = series[s];
    const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
    double acc = 0.0, accsq = 0.0;
    for (const double v : x) {
      acc += v;
      accsq += v * v;
    }
    const double n = static_cast<double>(x.size());
    const double mean = acc / n;
    const double stddev = std::sqrt(std::max(0.0, accsq / n - mean * mean));
    const std::size_t warm = steady_state_start(x);
    double steady_acc = 0.0;
    for (std::size_t i = warm; i < x.size(); ++i) steady_acc += x[i];
    const double steady_mean = steady_acc / static_cast<double>(x.size() - warm);
    table.add_row({header[s + 2], fmt_value(*lo), fmt_value(*hi), fmt_value(mean),
                   fmt_value(stddev), warm > 0 ? fmt_value(times[warm]) : "0",
                   fmt_value(steady_mean)});
  }
  table.print(std::cout);

  const auto width = static_cast<std::size_t>(args.get_int("width"));
  std::size_t label_width = 0;
  for (std::size_t s = 0; s < series_count; ++s) {
    label_width = std::max(label_width, header[s + 2].size());
  }
  for (std::size_t s = 0; s < series_count; ++s) {
    std::cout << header[s + 2] << std::string(label_width - header[s + 2].size(), ' ')
              << "  " << sparkline(series[s], width) << "\n";
  }
  return 0;
}

int cmd_profile(const ArgParser& args, const std::string& path) {
  const auto top = static_cast<std::size_t>(args.get_int("top"));
  obs::Tracer tracer;

  if (is_json(path)) {
    // Profile an exported Chrome trace (e.g. from `dlaja_run --trace`).
    if (!import_trace(path, tracer)) return 1;
    std::cout << "profiling " << tracer.events().size() << " events from " << path << "\n";
  } else {
    // Replay the workload trace with tracing enabled and profile the run.
    const auto workload = workload::load_trace_file(path);
    const std::unique_ptr<core::Engine> engine = replay_engine(args);
    if (!engine) return 1;
    tracer.set_enabled(true);
    engine->simulator().set_tracer(&tracer);
    (void)engine->run(workload.jobs);
    std::cout << "profiling " << tracer.events().size() << " events from a "
              << args.get("scheduler") << " replay of " << path << "\n";
  }

  obs::print_profile(std::cout, tracer, top);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("dlaja_trace", "generate, inspect, convert, replay and profile traces");
  args.add_positional("command",
                      "generate | info | replay | profile | timeseries | synth-swf | convert-swf");
  args.add_positional("file", "input file (info/replay/profile/timeseries/convert-swf)",
                      /*required=*/false);
  args.add_option("workload", "80%_large", "job config for generate");
  args.add_option("jobs", "120", "job count for generate/synth-swf (cap for convert-swf)");
  args.add_option("arrival", "2.0", "mean inter-arrival seconds for generate");
  args.add_option("out", "trace.csv", "output path for generate/synth-swf/convert-swf");
  args.add_option("scheduler", "bidding", "scheduler for replay");
  args.add_option("fleet", "all-equal", "fleet preset for replay");
  args.add_option("workers", "5", "fleet size for replay");
  args.add_option("seed", "42", "seed for generate/replay/synth-swf");
  args.add_option("executables", "15", "distinct applications for synth-swf");
  args.add_option("time-scale", "1.0", "arrival-timeline scale for convert-swf");
  args.add_option("top", "10", "rows in the profile's top-spans table");
  args.add_option("width", "60", "sparkline width (buckets) for timeseries");
  args.add_option("log-level", "warn", "log verbosity: trace|debug|info|warn|error|off");
  if (!args.parse(argc, argv)) return 1;
  set_log_level(parse_log_level(args.get("log-level")));

  const std::string command = args.positionals()[0];
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "synth-swf") return cmd_synth_swf(args);
    if (command == "info" || command == "replay" || command == "profile" ||
        command == "timeseries" || command == "convert-swf") {
      if (args.positionals().size() < 2) {
        std::cerr << command << " needs an input file\n";
        return 1;
      }
      const std::string& file = args.positionals()[1];
      if (command == "info") return cmd_info(file);
      if (command == "profile") return cmd_profile(args, file);
      if (command == "timeseries") return cmd_timeseries(args, file);
      if (command == "convert-swf") return cmd_convert_swf(args, file);
      return cmd_replay(args, file);
    }
    std::cerr << "unknown command: " << command << "\n" << args.usage();
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
