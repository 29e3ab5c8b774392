#pragma once
// The benchmark's three measuring modes, each run in its own process:
//
//   e2e     untraced runs of core::run_experiment repeated for the given
//           host seconds, plus repeated timed set-ups (the end-to-end
//           metrics except peak memory);
//   rss     exactly one untraced run, so the process's peak resident set
//           is the run's own;
//   traced  runs through the TimedScheduler wrapper alternated with
//           untraced ones (the per-layer metrics and the trace overhead).
//
// Every run is checked: derive.hpp's output checks, and bit-identical
// reports against the first (reference) run of the process. A run that
// throws (an engine logic error, a telemetry watchdog trip) fails its check
// and ends the measuring. Each mode prints one JSON object; run.py turns it
// into the benchmark's result line.

#include <cstdint>
#include <functional>
#include <string>

#include "core/experiment.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Options {
  std::string mode;      ///< "e2e" | "rss" | "traced"
  std::string workload;  ///< one of workload_names()
  std::uint64_t seed = 0;  ///< the run seed (make_spec() says what it seeds)
  double seconds = 10.0;  ///< host seconds of measured runs (e2e, traced)
  /// Applied to the workload's spec before any run. Tests use it to shrink a
  /// workload or to inject a failing scheduler; the command line never sets it.
  std::function<void(dlaja::core::ExperimentSpec&)> customize;
};

/// Runs one mode and returns its JSON result. Problems found by the output
/// checks are listed under "problems" (empty when the run is correct).
/// Throws std::invalid_argument on a bad mode or workload name.
[[nodiscard]] dlaja::json::Value run_mode(const Options& options);

/// Build provenance compiled into the benchmark: build type, compiler and
/// whether the code was compiled with optimization.
[[nodiscard]] dlaja::json::Value build_info();

}  // namespace perfbench
