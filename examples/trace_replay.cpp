// Trace replay example: generate a workload trace, save it to CSV, reload
// it, and replay it deterministically under two schedulers — the workflow
// for experimenting with external/public workload traces.
//
//   ./trace_replay [path] [workload]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/engine.hpp"
#include "sched/spec.hpp"
#include "util/table.hpp"
#include "workload/trace_io.hpp"

using namespace dlaja;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/dlaja_trace.csv";
  const std::string workload_name = argc > 2 ? argv[2] : "80%_large";

  // 1. Generate and archive a trace.
  workload::WorkloadSpec wspec =
      workload::make_workload_spec(workload::job_config_from_name(workload_name));
  const auto generated = workload::generate_workload(wspec, SeedSequencer(99));
  workload::save_trace_file(path, generated);
  std::cout << "wrote " << generated.jobs.size() << " jobs ("
            << fmt_fixed(generated.naive_mb() / 1024.0, 1) << " GB naive, "
            << fmt_fixed(generated.unique_mb() / 1024.0, 1) << " GB unique) to " << path
            << "\n\n";

  // 2. Reload and replay under two schedulers.
  const auto loaded = workload::load_trace_file(path);
  TextTable table("replay of " + path);
  table.set_header({"scheduler", "exec (s)", "misses", "data (MB)"});
  const std::vector<cluster::WorkerConfig> fleet =
      cluster::make_fleet(cluster::FleetPreset::kAllEqual);
  for (const std::string name : {"bidding", "baseline"}) {
    const sched::SchedulerSpec scheduler(name);
    const std::vector<sched::SpecIssue> issues = scheduler.validate(fleet.size());
    if (!issues.empty()) {
      std::cerr << "invalid scheduler spec:\n";
      for (const sched::SpecIssue& issue : issues) {
        std::cerr << "  " << issue.field << ": " << issue.message << "\n";
      }
      return 1;
    }
    core::EngineConfig config;
    config.seed = 99;
    core::Engine engine(fleet, scheduler.build(config.seed), config);
    const auto report = engine.run(loaded.jobs);
    table.add_row({name, fmt_fixed(report.exec_time_s, 1),
                   std::to_string(report.cache_misses),
                   fmt_fixed(report.data_load_mb, 0)});
  }
  table.print(std::cout);
  std::cout << "\nreplaying the same file with the same seed reproduces these rows "
               "bit-for-bit.\n";
  return 0;
}
