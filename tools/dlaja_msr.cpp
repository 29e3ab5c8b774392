// dlaja_msr — run the full MSR pipeline (the paper's §6.4 protocol) from
// the command line.
//
//   dlaja_msr --scheduler bidding --libraries 30 --repositories 90
//   dlaja_msr --scheduler baseline --runs 3 --jobs-csv jobs.csv

#include <fstream>
#include <iostream>
#include <vector>

#include "core/engine.hpp"
#include "metrics/timeline.hpp"
#include "msr/msr.hpp"
#include "sched/spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/trace_io.hpp"

using namespace dlaja;

int main(int argc, char** argv) {
  ArgParser args("dlaja_mine", "run the GitHub-mining (MSR) pipeline end to end");
  args.add_option("scheduler", "bidding", "scheduler name");
  args.add_option("libraries", "30", "NPM libraries streamed into the pipeline");
  args.add_option("repositories", "90", "synthetic GitHub repositories");
  args.add_option("match", "0.15", "base library-in-repository probability");
  args.add_option("workers", "5", "fleet size");
  args.add_option("runs", "3", "independent runs (fresh caches each, like §6.4)");
  args.add_option("seed", "42", "base seed (runs use seed, seed+1, ...)");
  args.add_option("flatten", "", "write the analyzer workload as a trace to this file");
  args.add_option("jobs-csv", "", "write the last run's per-job Gantt rows to this file");
  if (!args.parse(argc, argv)) return 1;

  const auto workers = static_cast<std::size_t>(args.get_int("workers"));
  const sched::SchedulerSpec scheduler(args.get("scheduler"));
  const std::vector<sched::SpecIssue> issues = scheduler.validate(workers);
  if (!issues.empty()) {
    std::cerr << "invalid scheduler spec:\n";
    for (const sched::SpecIssue& issue : issues) {
      std::cerr << "  " << issue.field << ": " << issue.message << "\n";
    }
    return 1;
  }

  msr::MsrConfig config;
  config.library_count = static_cast<std::size_t>(args.get_int("libraries"));
  config.repository_count = static_cast<std::size_t>(args.get_int("repositories"));
  config.match_probability = args.get_double("match");

  const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
  std::cout << "pipeline: " << config.library_count << " libraries, "
            << config.repository_count << " repositories ("
            << fmt_fixed(pipeline.catalog.total_mb() / 1024.0, 1) << " GB), "
            << pipeline.analyzer_job_count() << " analyzer jobs\n\n";

  if (!args.get("flatten").empty()) {
    workload::save_trace_file(args.get("flatten"),
                              msr::flatten_to_workload(pipeline, config));
    std::cout << "analyzer workload -> " << args.get("flatten") << "\n";
  }

  TextTable table("MSR runs under " + args.get("scheduler") +
                  " (historic speed estimation, 100 MB probe)");
  table.set_header({"run", "exec (s)", "data load (MB)", "cache misses", "co-occur hits"});
  const int runs = static_cast<int>(args.get_int("runs"));
  for (int r = 0; r < runs; ++r) {
    // Fresh pipeline per run so the results counter starts clean.
    const auto run_pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));
    core::EngineConfig engine_config;
    engine_config.seed = static_cast<std::uint64_t>(args.get_int("seed") + r);
    engine_config.estimation = cluster::SpeedEstimator::Mode::kHistoric;
    engine_config.probe_speeds = true;
    core::Engine engine(msr::make_msr_fleet(workers), scheduler.build(engine_config.seed),
                        engine_config);
    engine.set_workflow(run_pipeline.workflow);
    const auto report = engine.run(run_pipeline.seed_jobs);
    table.add_row({"run " + std::to_string(r + 1), fmt_fixed(report.exec_time_s, 2),
                   fmt_fixed(report.data_load_mb, 2), std::to_string(report.cache_misses),
                   std::to_string(run_pipeline.results->total_hits())});

    if (r == runs - 1 && !args.get("jobs-csv").empty()) {
      std::ofstream out(args.get("jobs-csv"));
      if (!out) {
        std::cerr << "cannot open " << args.get("jobs-csv") << "\n";
        return 1;
      }
      metrics::write_jobs_csv(out, engine.metrics());
      std::cout << "per-job rows -> " << args.get("jobs-csv") << "\n";
    }
  }
  table.print(std::cout);
  return 0;
}
