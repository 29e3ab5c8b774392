// dlaja_fuzz — seeded scenario fuzzer.
//
// Sweeps deterministic random scenarios (workload × fault plan × fleet
// shape × scheduler config) through the simulator with the telemetry
// watchdog armed, checking the conservation, broker-conservation,
// cache-capacity, bit-determinism and federation-identity invariants. On a
// violation the scenario is shrunk to a minimal reproducing spec, written
// to --out-dir, and a one-line repro command is printed.
//
//   dlaja_fuzz --seed 1 --count 100
//   dlaja_fuzz --seed 7 --count 25 --verbose
//   dlaja_fuzz --check examples/scenarios/repro_jobs_conservation_s1_i4.json

#include <fstream>
#include <iostream>
#include <sstream>

#include "fuzz/fuzz.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

using namespace dlaja;

int main(int argc, char** argv) {
  ArgParser args("dlaja_fuzz",
                 "fuzz random scenarios under the simulator's invariants; shrink and "
                 "write a minimal repro on failure");
  args.add_option("seed", "1", "sweep seed: scenario i is a pure function of (seed, i)");
  args.add_option("count", "100", "scenarios to check");
  args.add_option("check", "",
                  "check one scenario file (JSON) instead of sweeping; exit 1 if any "
                  "invariant is violated");
  args.add_option("out-dir", "examples/scenarios",
                  "where repro_*.json lands on failure (empty = do not write)");
  args.add_option("max-shrink", "120", "max candidate checks during shrinking");
  args.add_option("log-level", "error", "log verbosity: trace|debug|info|warn|error|off");
  args.add_flag("no-determinism", "skip the run-twice bit-determinism check");
  args.add_flag("verbose", "one line per scenario instead of a progress dot");
  if (!args.parse(argc, argv)) return 1;
  set_log_level(parse_log_level(args.get("log-level")));

  fuzz::CheckOptions check;
  check.determinism = !args.given("no-determinism");

  if (!args.get("check").empty()) {
    const std::string path = args.get("check");
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    core::ExperimentSpec spec;
    try {
      spec = core::ExperimentSpec::from_json(json::parse(text.str()));
    } catch (const std::exception& error) {
      std::cerr << path << ": " << error.what() << "\n";
      return 1;
    }
    const auto violation = fuzz::check_spec(spec, check);
    if (violation.has_value()) {
      std::cout << "FAIL: " << path << " violated '" << violation->invariant << "'\n      "
                << violation->detail << "\n";
      return 1;
    }
    std::cout << "OK: " << path << " passed all invariants\n";
    return 0;
  }

  fuzz::FuzzConfig config;
  config.seed = std::stoull(args.get("seed"));
  config.count = std::stoull(args.get("count"));
  config.check = check;
  config.max_shrink_checks = std::stoull(args.get("max-shrink"));
  config.repro_dir = args.get("out-dir");
  config.verbose = args.given("verbose");

  const fuzz::FuzzResult result = fuzz::run_fuzz(config, std::cout);
  return result.failed ? 1 : 0;
}
