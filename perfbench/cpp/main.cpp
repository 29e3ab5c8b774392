// perfbench_dlaja <e2e|rss|traced> --workload NAME [--seed N] [--seconds S]
//
// Runs one measuring mode of the benchmark and prints its raw result as one
// JSON line. perfbench/run.py drives it; README.md describes the modes.
// Exit status: 0 = result printed and every output check passed, 1 = result
// printed but an output check failed (a run that throws fails its check),
// 2 = bad arguments or an error outside the runs.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_dlaja: " << problem << "\n"
            << "usage: perfbench_dlaja <e2e|rss|traced> --workload NAME [--seed N]"
               " [--seconds S]\n  workloads:";
  for (const std::string& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  perfbench::Options options;
  options.mode = argv[1];
  options.seed = perfbench::kDefaultSeed;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  try {
    const dlaja::json::Value result = perfbench::run_mode(options);
    std::cout << result.dump() << std::endl;
    return result.as_object().find("problems")->as_array().empty() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench_dlaja: " << e.what() << '\n';
    return 2;
  }
}
