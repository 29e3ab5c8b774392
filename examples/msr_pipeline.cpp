// MSR pipeline example: the paper's motivating use case (§2) end to end.
//
// Builds the Fig. 1 pipeline — RepositorySearcher -> RepositoryAnalyzer ->
// CoOccurrenceAggregator — over a synthetic GitHub, runs it on a 5-worker
// cluster under the Bidding Scheduler, and prints the pipeline's business
// result: the most frequently co-occurring NPM library pairs.
//
//   ./msr_pipeline [libraries] [repositories] [scheduler]

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "msr/msr.hpp"
#include "sched/spec.hpp"
#include "util/table.hpp"

using namespace dlaja;

namespace {

// A plausible set of popular NPM package names for readable output.
const char* kLibraries[] = {
    "lodash",   "react",    "axios",     "express", "chalk",   "moment",
    "commander", "debug",   "fs-extra",  "uuid",    "classnames", "yargs",
    "webpack",  "typescript", "jest",    "eslint",  "prettier", "rxjs",
    "vue",      "jquery",   "underscore", "async",  "bluebird", "ramda",
    "dotenv",   "mocha",    "chai",      "sinon",   "redux",    "next"};

[[nodiscard]] std::string library_name(std::uint32_t index) {
  if (index < std::size(kLibraries)) return kLibraries[index];
  return "pkg-" + std::to_string(index);
}

}  // namespace

int main(int argc, char** argv) {
  msr::MsrConfig config;
  if (argc > 1) config.library_count = std::strtoul(argv[1], nullptr, 10);
  if (argc > 2) config.repository_count = std::strtoul(argv[2], nullptr, 10);
  const std::string scheduler_name = argc > 3 ? argv[3] : "bidding";
  std::vector<cluster::WorkerConfig> fleet = msr::make_msr_fleet();
  const sched::SchedulerSpec scheduler(scheduler_name);
  const std::vector<sched::SpecIssue> issues = scheduler.validate(fleet.size());
  if (!issues.empty()) {
    std::cerr << "invalid scheduler spec:\n";
    for (const sched::SpecIssue& issue : issues) {
      std::cerr << "  " << issue.field << ": " << issue.message << "\n";
    }
    return 1;
  }

  const SeedSequencer seeds(2026);
  const auto pipeline = msr::build_msr_pipeline(config, seeds);
  std::cout << "synthetic GitHub: " << config.repository_count << " large repositories ("
            << fmt_fixed(pipeline.catalog.total_mb() / 1024.0, 1) << " GB total), "
            << config.library_count << " libraries, " << pipeline.analyzer_job_count()
            << " (library, repository) analysis jobs\n\n";

  core::EngineConfig engine_config;
  engine_config.seed = 2026;
  engine_config.estimation = cluster::SpeedEstimator::Mode::kHistoric;
  engine_config.probe_speeds = true;
  core::Engine engine(std::move(fleet), scheduler.build(engine_config.seed), engine_config);
  engine.set_workflow(pipeline.workflow);
  const auto report = engine.run(pipeline.seed_jobs);

  std::cout << "pipeline finished in " << fmt_fixed(report.exec_time_s, 1)
            << " simulated seconds under '" << scheduler_name << "'\n"
            << "  jobs completed : " << report.jobs_completed << "\n"
            << "  cache misses   : " << report.cache_misses << "\n"
            << "  data load      : " << fmt_fixed(report.data_load_mb / 1024.0, 1) << " GB\n\n";

  // Per-worker view: who did the cloning.
  TextTable workers("per-worker breakdown");
  workers.set_header({"worker", "jobs", "clones", "downloaded (GB)", "busy (s)"});
  for (const auto& w : report.workers) {
    workers.add_row({w.name, std::to_string(w.jobs_completed),
                     std::to_string(w.cache_misses),
                     fmt_fixed(w.downloaded_mb / 1024.0, 1),
                     fmt_fixed(seconds_from_ticks(w.busy_ticks), 0)});
  }
  workers.print(std::cout);

  // The business result: top co-occurring library pairs (§2 step 4).
  using Pair = std::pair<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>;
  std::vector<Pair> pairs;
  for (const auto& entry : pipeline.results->matrix()) pairs.push_back(entry);
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.second > b.second; });

  std::cout << "\n";
  TextTable top("top 10 co-occurring library pairs");
  top.set_header({"library A", "library B", "co-occurrences"});
  for (std::size_t i = 0; i < pairs.size() && i < 10; ++i) {
    top.add_row({library_name(pairs[i].first.first), library_name(pairs[i].first.second),
                 std::to_string(pairs[i].second)});
  }
  top.print(std::cout);
  return 0;
}
