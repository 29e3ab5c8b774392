// Scheduler comparison example: run one workload under every scheduler in
// the library and rank them on the paper's three metrics.
//
//   ./scheduler_comparison [workload] [fleet] [iterations]

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/experiment.hpp"
#include "sched/spec.hpp"
#include "util/table.hpp"

using namespace dlaja;

int main(int argc, char** argv) {
  const std::string workload_name = argc > 1 ? argv[1] : "80%_large";
  const std::string fleet_name = argc > 2 ? argv[2] : "fast-slow";
  const int iterations = argc > 3 ? std::atoi(argv[3]) : 3;

  struct Row {
    std::string scheduler;
    double exec_s = 0.0;
    double misses = 0.0;
    double data_mb = 0.0;
    double alloc_s = 0.0;
  };
  std::vector<Row> rows;

  for (const std::string& name : sched::SchedulerSpec::known_types()) {
    core::ExperimentSpec spec;
    spec.scheduler = name;
    spec.job_config = workload::job_config_from_name(workload_name);
    spec.fleet = cluster::fleet_preset_from_name(fleet_name);
    spec.iterations = iterations;

    Row row;
    row.scheduler = name;
    const auto reports = core::run_experiment(spec);
    for (const auto& r : reports) {
      const auto n = static_cast<double>(reports.size());
      row.exec_s += r.exec_time_s / n;
      row.misses += static_cast<double>(r.cache_misses) / n;
      row.data_mb += r.data_load_mb / n;
      row.alloc_s += r.avg_alloc_latency_s / n;
    }
    rows.push_back(std::move(row));
  }

  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.exec_s < b.exec_s; });

  TextTable table("scheduler ranking — " + workload_name + " on " + fleet_name + " (" +
                  std::to_string(iterations) + " iterations, caches carried)");
  table.set_header({"#", "scheduler", "exec (s)", "misses", "data (MB)", "alloc lat (s)"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({std::to_string(i + 1), rows[i].scheduler, fmt_fixed(rows[i].exec_s, 1),
                   fmt_fixed(rows[i].misses, 1), fmt_fixed(rows[i].data_mb, 0),
                   fmt_fixed(rows[i].alloc_s, 3)});
  }
  table.print(std::cout);
  std::cout << "\nNote: 'least-queue' is an omniscient load-balance reference the paper's\n"
               "decentralized setting cannot implement; 'random'/'round-robin' are floors.\n";
  return 0;
}
