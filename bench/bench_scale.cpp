// Scale bench: contest fan-out policy × fleet size.
//
// Sweeps the bidding scheduler over large fleets with all three fan-out
// policies. `full` is the paper's protocol — every contest broadcasts to
// every worker and waits for every bid, so contest cost grows linearly
// with the fleet and the master's wall-clock throughput collapses at
// thousands of workers. `probe:4` solicits a seeded 4-subset per contest
// (Dodoor-style), making contest cost independent of fleet size.
// `cached:4` skips the contest round-trip entirely: the master places each
// job on the best of 4 cached candidates (late binding, one fallback
// re-contest on a stale decline) — O(1) messages per job.
//
// Prints per-cell wall time, decision throughput (contests + direct
// placements per wall second), messages per job, and placement quality
// (exec time relative to the full-broadcast optimum at the same fleet),
// then the cached-vs-probe speedup per fleet size. Nothing records these
// numbers; perfbench/ is the measured benchmark.
//
// The 10k-worker full-broadcast cell is expensive (O(workers) messages per
// contest); it is skipped unless BENCH_SCALE_FULL=1 so the default sweep
// stays fast. Without it the 10k placement-quality column falls back to
// the probe:4 arm as its reference.
//
//   bench_scale [--jobs 2000] [--seed 42]

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.hpp"

using namespace dlaja;

int main(int argc, char** argv) {
  std::size_t jobs = 2000;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : std::string{}; };
    if (arg == "--jobs") {
      jobs = std::stoul(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: [--jobs n] [--seed n]\n";
      return 0;
    }
  }

  const char* full_env = std::getenv("BENCH_SCALE_FULL");
  const bool full_at_10k = full_env != nullptr && std::string(full_env) == "1";

  constexpr std::size_t kFleets = 5;
  constexpr std::size_t kFanouts = 3;
  const std::size_t fleets[kFleets] = {5, 50, 500, 2000, 10000};
  const char* fanouts[kFanouts] = {"full", "probe:4", "cached:4"};

  TextTable table("Scale — contest fan-out policy x fleet size (all_diff_equal, " +
                  std::to_string(jobs) + " jobs)");
  table.set_header({"workers", "fanout", "wall (s)", "decisions", "decisions/s", "msgs",
                    "msgs/job", "exec (s)", "quality"});

  double throughput[kFleets][kFanouts] = {};
  double exec_time[kFleets][kFanouts] = {};
  bool ran[kFleets][kFanouts] = {};
  for (std::size_t fi = 0; fi < kFleets; ++fi) {
    for (std::size_t pi = 0; pi < kFanouts; ++pi) {
      if (fleets[fi] == 10000 && pi == 0 && !full_at_10k) {
        table.add_row({std::to_string(fleets[fi]), fanouts[pi], "-", "-", "-", "-", "-",
                       "-", "skipped (BENCH_SCALE_FULL=1 to run)"});
        continue;
      }
      core::ExperimentSpec spec;
      spec.scheduler = std::string("bidding:fanout=") + fanouts[pi];
      workload::WorkloadSpec wspec =
          workload::make_workload_spec(workload::JobConfig::kAllDiffEqual);
      wspec.job_count = jobs;
      spec.custom_workload = wspec;
      spec.fleet = cluster::FleetPreset::kAllEqual;
      spec.worker_count = fleets[fi];
      spec.iterations = 1;
      spec.seed = seed;

      const auto reports = core::run_experiment(spec);
      const metrics::RunReport& r = reports.front();
      // "Decisions" unifies the two placement mechanisms: a contest (full /
      // probe, and cached's decline fallbacks) or a direct cached placement.
      const double decisions = r.stat("sched.contests") + r.stat("fanout.placements");
      const double wall = r.wall_time_s > 0.0 ? r.wall_time_s : 1e-9;
      const double msgs_per_job =
          static_cast<double>(r.messages_delivered) / static_cast<double>(jobs);
      throughput[fi][pi] = decisions / wall;
      exec_time[fi][pi] = r.exec_time_s;
      ran[fi][pi] = true;
      // Placement quality: exec time relative to the full broadcast at the
      // same fleet (1.0 = matched the paper protocol's outcome). Filled in
      // after the full arm of this fleet ran (pi == 0 runs first).
      const double quality = ran[fi][0] && exec_time[fi][0] > 0.0
                                 ? r.exec_time_s / exec_time[fi][0]
                                 : 0.0;

      table.add_row({std::to_string(fleets[fi]), fanouts[pi], fmt_fixed(wall, 3),
                     fmt_fixed(decisions, 0), fmt_fixed(throughput[fi][pi], 0),
                     std::to_string(r.messages_delivered), fmt_fixed(msgs_per_job, 1),
                     fmt_fixed(r.exec_time_s, 1),
                     quality > 0.0 ? fmt_ratio(quality) : "-"});
    }
  }
  table.print(std::cout);

  std::cout << "\ncontest/decision-throughput speedups:";
  for (std::size_t fi = 0; fi < kFleets; ++fi) {
    const double cached_vs_probe =
        throughput[fi][1] > 0.0 ? throughput[fi][2] / throughput[fi][1] : 0.0;
    std::cout << "  " << fleets[fi] << "w cached-vs-probe=" << fmt_ratio(cached_vs_probe);
  }
  std::cout << "\n";
  return 0;
}
