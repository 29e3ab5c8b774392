// Tables 1-3 reproduction: the non-simulated MSR experiments (paper §6.4).
//
// The original runs the full Fig. 1 pipeline against live GitHub on AWS;
// here the same pipeline runs against the synthetic GitHub with the §6.4
// estimation protocol: workers probe their speeds on a 100 MB repository up
// front, then bid with the historic average of the speeds measured on every
// completed job. Three runs per scheduler, all starting from cold caches.
//
// Paper anchors:
//   Table 1 (exec time):  Bidding 2918.5-3204.5 s  vs Baseline 3544.45-4183.5 s
//   Table 2 (data load):  ~325-333 GB              vs ~848-891 GB
//   Table 3 (cache miss): 186-205                  vs 386-405

#include <iostream>

#include "bench_common.hpp"
#include "msr/msr.hpp"
#include "sched/spec.hpp"

using namespace dlaja;

namespace {

struct MsrRun {
  double exec_s = 0.0;
  double data_mb = 0.0;
  std::uint64_t misses = 0;
  std::size_t jobs = 0;
};

MsrRun run_msr(const std::string& scheduler, std::uint64_t seed) {
  msr::MsrConfig config;  // defaults: 30 libraries, 90 large repositories
  const auto pipeline = msr::build_msr_pipeline(config, SeedSequencer(42));  // fixed dataset

  core::EngineConfig engine_config;
  engine_config.seed = seed;  // run-to-run variation comes from the environment
  engine_config.noise = net::NoiseConfig::throttle(0.10, 0.30);
  engine_config.estimation = cluster::SpeedEstimator::Mode::kHistoric;
  engine_config.probe_speeds = true;

  core::Engine engine(msr::make_msr_fleet(), sched::SchedulerSpec(scheduler).build(seed),
                      engine_config);
  engine.set_workflow(pipeline.workflow);
  const auto report = engine.run(pipeline.seed_jobs);

  MsrRun run;
  run.exec_s = report.exec_time_s;
  run.data_mb = report.data_load_mb;
  run.misses = report.cache_misses;
  run.jobs = report.jobs_completed;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);
  const int runs = options.iterations;

  std::vector<MsrRun> bidding, baseline;
  for (int r = 0; r < runs; ++r) {
    bidding.push_back(run_msr("bidding", options.seed + static_cast<std::uint64_t>(r)));
    baseline.push_back(run_msr("baseline", options.seed + static_cast<std::uint64_t>(r)));
  }

  {
    TextTable table("Table 1 — MSR execution times (s)   [paper: 2918-3205 vs 3544-4184]");
    table.set_header({"MSR", "Bidding", "Baseline", "reduction"});
    for (int r = 0; r < runs; ++r) {
      table.add_row({"run " + std::to_string(r + 1), fmt_fixed(bidding[r].exec_s, 2),
                     fmt_fixed(baseline[r].exec_s, 2),
                     fmt_percent(1.0 - bidding[r].exec_s / baseline[r].exec_s)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  {
    TextTable table("Table 2 — data load (MB)   [paper: ~325k-333k vs ~848k-891k]");
    table.set_header({"MSR", "Bidding", "Baseline", "reduction"});
    for (int r = 0; r < runs; ++r) {
      table.add_row({"run " + std::to_string(r + 1), fmt_fixed(bidding[r].data_mb, 2),
                     fmt_fixed(baseline[r].data_mb, 2),
                     fmt_percent(1.0 - bidding[r].data_mb / baseline[r].data_mb)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  {
    TextTable table("Table 3 — cache miss count   [paper: 186-205 vs 386-405]");
    table.set_header({"MSR", "Bidding", "Baseline", "reduction"});
    for (int r = 0; r < runs; ++r) {
      table.add_row({"run " + std::to_string(r + 1), std::to_string(bidding[r].misses),
                     std::to_string(baseline[r].misses),
                     fmt_percent(1.0 - static_cast<double>(bidding[r].misses) /
                                           static_cast<double>(baseline[r].misses))});
    }
    table.print(std::cout);
  }

  std::cout << "\npipeline size: " << bidding[0].jobs
            << " jobs per run (searchers + analyzers + aggregations)\n";
  return 0;
}
