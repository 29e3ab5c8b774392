#pragma once
// The benchmark's named workloads, as ExperimentSpecs built from a seed.
//
// Each workload stresses a different layer (README.md, "Workloads"):
//   fleet10k_probe4       the master's decision over a 10k-worker fleet;
//   saturation16_cached4  worker estimation on deep queues, streamed arrivals;
//   broadcast256_faults   kernel and broker under the paper's protocol, faults.
// The seed is the only input: the same (name, seed) always yields the same
// spec, and every random draw of the run derives from spec.seed.

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

/// Seed used when the command line names none. It is the repo-wide scenario
/// seed (examples/scenarios/*.json), not a seed picked for its cost.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Workload names in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The spec of workload `name` for the run seed `seed`. Throws
/// std::invalid_argument on an unknown name. All workloads run one shard,
/// no thread pool.
///
/// fleet10k_probe4 and broadcast256_faults simulate `seed`. Across seeds
/// their host cost per job and their simulated metrics move by a few
/// percent to ~14% (README.md, "Seeds"). saturation16_cached4 simulates
/// kDefaultSeed whatever `seed` is: near saturation the queue depth follows
/// the random draws, so other seeds are different workloads (7-14x the host
/// cost per job, 3-20x the turnaround at seeds 1-5), and no bound could
/// absorb them across the seeds of one set of runs.
[[nodiscard]] dlaja::core::ExperimentSpec make_spec(const std::string& name,
                                                    std::uint64_t seed);

/// Root jobs one iteration of `spec` submits: the closed trace's job count,
/// or the number of arrivals the open stream emits (counted by draining an
/// identical stream).
[[nodiscard]] std::uint64_t root_jobs_per_iteration(const dlaja::core::ExperimentSpec& spec);

}  // namespace perfbench
