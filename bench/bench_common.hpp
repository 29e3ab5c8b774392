#pragma once
// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Every bench prints the rows/series of one table or figure from the paper,
// side by side with the paper's reported values where applicable, and can
// dump raw per-run rows as CSV (--csv <path>).

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "util/table.hpp"

namespace dlaja::bench {

/// Parsed common CLI flags.
struct BenchOptions {
  std::optional<std::string> csv_path;  ///< --csv <path>: dump raw runs
  std::uint64_t seed = 42;              ///< --seed <n>
  std::size_t jobs = 120;               ///< --jobs <n> (paper: 120)
  int iterations = 3;                   ///< --iters <n> (paper: 3)
  std::size_t threads = 0;              ///< --threads <n> (0 = all cores)
};

inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string{};
    };
    if (arg == "--csv") {
      options.csv_path = next();
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
    } else if (arg == "--jobs") {
      options.jobs = std::stoul(next());
    } else if (arg == "--iters") {
      options.iterations = std::stoi(next());
    } else if (arg == "--threads") {
      options.threads = std::stoul(next());
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: [--csv path] [--seed n] [--jobs n] [--iters n] [--threads n]\n";
      std::exit(0);
    }
  }
  return options;
}

/// Builds the standard §6.3 cell: one scheduler, one job config, one fleet.
inline core::ExperimentSpec make_cell(const std::string& scheduler,
                                      workload::JobConfig config,
                                      cluster::FleetPreset fleet,
                                      const BenchOptions& options) {
  core::ExperimentSpec spec;
  spec.scheduler = scheduler;
  workload::WorkloadSpec wspec = workload::make_workload_spec(config);
  wspec.job_count = options.jobs;
  spec.custom_workload = wspec;
  spec.fleet = fleet;
  spec.iterations = options.iterations;
  spec.seed = options.seed;
  return spec;
}

/// Dumps raw run reports if --csv was given.
inline void maybe_dump_csv(const BenchOptions& options,
                           const std::vector<metrics::RunReport>& reports) {
  if (!options.csv_path) return;
  std::ofstream out(*options.csv_path);
  if (!out) {
    std::cerr << "cannot open " << *options.csv_path << " for writing\n";
    return;
  }
  metrics::write_reports_csv(out, reports);
  std::cout << "\nraw runs written to " << *options.csv_path << "\n";
}

/// Convenience: aggregate key "scheduler|workload|fleet".
inline std::string cell_key(const metrics::RunReport& r) {
  return r.scheduler + "|" + r.workload + "|" + r.worker_config;
}

}  // namespace dlaja::bench
