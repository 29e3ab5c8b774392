#pragma once
// Scenario fuzzing: seeded random experiment specs, invariant checking and
// failure shrinking.
//
// Simulator studies keep finding that scheduler bugs hide in untested
// corners of the scenario space. The scenario JSON API makes that space
// enumerable, the telemetry watchdog makes runs self-checking, and this
// library closes the loop: generate a seeded random scenario (workload ×
// fault plan × fleet shape × scheduler config), run it under
// the conservation / broker-conservation / cache-capacity / bit-determinism
// invariants, and when something trips, shrink the scenario (halve jobs,
// drop fault clauses, shrink the fleet, reduce the horizon) to a minimal
// reproducing spec that one command replays.
//
// Everything is deterministic: random_spec(seed, i) is a pure function, so
// `dlaja_fuzz --seed S --count N` explores the same N scenarios on every
// machine, and a failure report names the exact index that tripped.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/experiment.hpp"

namespace dlaja::fuzz {

/// One invariant violation found by check_spec().
struct Violation {
  /// Which invariant tripped: "jobs.conservation", "broker.conservation",
  /// "cache.capacity", "bit-determinism", "federation-identity",
  /// "spec-invalid", or "runtime-error" for uncategorized throws.
  std::string invariant;
  std::string detail;
};

/// Which (expensive) cross-run invariants to check.
struct CheckOptions {
  bool determinism = true;  ///< same seed twice -> bit-identical reports
};

/// The i-th scenario of the seeded sweep: a pure function of (seed, index)
/// sampling the serializable spec space — scheduler config strings, fleet
/// presets, preset workloads with a job-count override, open arrivals,
/// fault-plan clause combinations, noise schemes. The result always passes
/// ExperimentSpec::validate().
[[nodiscard]] core::ExperimentSpec random_spec(std::uint64_t seed, std::uint64_t index);

/// Runs `spec` under the invariants and returns the first violation, or
/// nullopt if the scenario is clean. Telemetry (with the watchdog) is
/// forced on — the watchdog checks jobs.conservation, cache.capacity and
/// broker.conservation at every sampled tick — and the run-end gates check
/// lost == 0 plus full completion for closed fault-free cells. With
/// options.determinism the spec runs twice and the reports' hexfloat
/// fingerprints must match; a one-partition federation must also match
/// the same spec without federation.
[[nodiscard]] std::optional<Violation> check_spec(const core::ExperimentSpec& spec,
                                                  const CheckOptions& options = {});

/// Greedy delta-debugging shrink: repeatedly applies reductions (iterations
/// to 1, halve/decrement jobs, drop fault clauses, halve/shrink the fleet,
/// silence noise, shorten open-arrival horizons), keeping
/// a candidate only if it still fails with the *same* invariant. Runs at
/// most `max_checks` candidate checks. Returns the smallest failing spec
/// found (at worst the input).
[[nodiscard]] core::ExperimentSpec shrink(
    const core::ExperimentSpec& spec, const Violation& violation, const CheckOptions& options,
    std::size_t max_checks = 120,
    const std::function<void(const std::string&)>& log = {});

/// One fuzzing campaign.
struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t count = 100;
  CheckOptions check;
  std::size_t max_shrink_checks = 120;
  /// Where repro_*.json lands on failure ("" disables writing).
  std::string repro_dir = "examples/scenarios";
  bool verbose = false;  ///< one line per scenario instead of a progress dot
};

struct FuzzResult {
  std::size_t checked = 0;  ///< scenarios fully checked (including the failing one)
  bool failed = false;
  std::uint64_t failing_index = 0;
  Violation violation;                ///< valid when failed
  core::ExperimentSpec minimal;       ///< shrunk failing spec (when failed)
  std::string repro_path;             ///< "" if not written
  std::string repro_command;          ///< one-liner that replays the failure
};

/// Sweeps scenarios random_spec(seed, 0..count-1) through check_spec,
/// stopping at the first violation, shrinking it and (when repro_dir is
/// set) writing the minimal scenario to repro_dir/repro_<invariant>_*.json.
/// Progress and the verdict go to `out`.
[[nodiscard]] FuzzResult run_fuzz(const FuzzConfig& config, std::ostream& out);

}  // namespace dlaja::fuzz
