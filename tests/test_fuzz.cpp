// Tests for the scenario fuzzer: deterministic generation, invariant
// checking, and shrinking of an (injected) conservation bug down to a
// minimal reproducing scenario.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "fuzz/fuzz.hpp"
#include "util/json.hpp"

namespace dlaja::fuzz {
namespace {

/// Scoped DLAJA_FUZZ_INJECT so a failing test never leaks the hook into
/// later tests (which would make clean sweeps fail mysteriously).
class ScopedInjection {
 public:
  explicit ScopedInjection(const char* mode) { ::setenv("DLAJA_FUZZ_INJECT", mode, 1); }
  ~ScopedInjection() { ::unsetenv("DLAJA_FUZZ_INJECT"); }
};

/// Fast check options for tests that only care about the run-end gates.
CheckOptions cheap() {
  CheckOptions options;
  options.determinism = false;
  return options;
}

TEST(RandomSpec, IsAPureFunctionOfSeedAndIndex) {
  for (std::uint64_t index : {0ull, 3ull, 17ull}) {
    const core::ExperimentSpec a = random_spec(5, index);
    const core::ExperimentSpec b = random_spec(5, index);
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump()) << index;
  }
  EXPECT_NE(random_spec(5, 0).to_json().dump(), random_spec(6, 0).to_json().dump());
}

TEST(RandomSpec, AlwaysValidatesAndSerializes) {
  for (std::uint64_t index = 0; index < 40; ++index) {
    const core::ExperimentSpec spec = random_spec(3, index);
    EXPECT_TRUE(spec.validate().empty()) << index;
    // Round-trips through the scenario form (shrunk repros depend on it).
    const core::ExperimentSpec back = core::ExperimentSpec::from_json(spec.to_json());
    EXPECT_EQ(back.to_json().dump(), spec.to_json().dump()) << index;
  }
}

TEST(CheckSpec, CleanSpecPassesAllInvariants) {
  // Full options on one small closed spec: the watchdog run, the run-end
  // gates and the determinism re-run must all come back clean.
  const core::ExperimentSpec spec = random_spec(1, 2);
  ASSERT_FALSE(spec.open_arrivals.has_value());
  const auto violation = check_spec(spec, {});
  EXPECT_FALSE(violation.has_value()) << violation->invariant << ": " << violation->detail;
}

TEST(CheckSpec, FlagsInvalidSpecsStructurally) {
  core::ExperimentSpec spec = random_spec(1, 0);
  spec.worker_count = 0;
  const auto violation = check_spec(spec, cheap());
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, "spec-invalid");
}

TEST(CheckSpec, InjectedConservationBugIsCaught) {
  const ScopedInjection inject("conservation");
  core::ExperimentSpec spec = random_spec(1, 0);
  spec.open_arrivals.reset();
  spec.custom_workload->job_count = 48;
  spec.worker_count = 6;
  spec.scheduler = "bidding";
  const auto violation = check_spec(spec, cheap());
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, "jobs.conservation");
}

TEST(Shrink, ReducesInjectedBugToMinimalScenario) {
  const ScopedInjection inject("conservation");
  core::ExperimentSpec spec = random_spec(2, 0);
  spec.open_arrivals.reset();
  spec.custom_workload->job_count = 48;
  spec.worker_count = 6;
  spec.iterations = 2;
  spec.faults = fault::FaultPlan::parse("crash:w=1,at=5,down=10;drop:p=0.01");
  ASSERT_TRUE(spec.validate().empty());
  const Violation violation{"jobs.conservation", "injected"};
  ASSERT_TRUE(check_spec(spec, cheap()).has_value());

  const core::ExperimentSpec minimal = shrink(spec, violation, cheap(), 200);
  // The hook fires iff jobs >= 24 && workers >= 2 on a closed spec, so a
  // correct shrinker lands exactly on the boundary with everything
  // irrelevant stripped.
  EXPECT_EQ(minimal.custom_workload->job_count, 24u);
  EXPECT_EQ(minimal.worker_count, 2u);
  EXPECT_EQ(minimal.iterations, 1);
  EXPECT_TRUE(minimal.faults.empty());
  EXPECT_FALSE(minimal.carry_cache);
  EXPECT_EQ(minimal.noise.kind, net::NoiseConfig::Kind::kNone);
  // And it still reproduces the violation.
  const auto still = check_spec(minimal, cheap());
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->invariant, "jobs.conservation");
}

TEST(RunFuzz, CleanSweepReportsOk) {
  FuzzConfig config;
  config.seed = 11;
  config.count = 8;
  config.check = cheap();
  config.repro_dir = "";
  std::ostringstream out;
  const FuzzResult result = run_fuzz(config, out);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.checked, 8u);
  EXPECT_NE(out.str().find("zero invariant violations"), std::string::npos);
}

TEST(RunFuzz, WritesReplayableRepro) {
  const ScopedInjection inject("conservation");
  FuzzConfig config;
  config.seed = 1;
  config.count = 30;  // the hook trips on the first closed spec with >=24 jobs
  config.check = cheap();
  config.repro_dir = ::testing::TempDir();
  std::ostringstream out;
  const FuzzResult result = run_fuzz(config, out);
  ASSERT_TRUE(result.failed);
  EXPECT_EQ(result.violation.invariant, "jobs.conservation");
  ASSERT_FALSE(result.repro_path.empty());
  EXPECT_NE(result.repro_command.find("--check"), std::string::npos);
  EXPECT_NE(result.repro_command.find("DLAJA_FUZZ_INJECT=conservation"), std::string::npos);

  // The written file is a loadable scenario that still trips the invariant.
  std::ifstream in(result.repro_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const core::ExperimentSpec repro =
      core::ExperimentSpec::from_json(json::parse(text.str()));
  EXPECT_EQ(repro.custom_workload->job_count, 24u);
  EXPECT_EQ(repro.worker_count, 2u);
  const auto violation = check_spec(repro, cheap());
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, "jobs.conservation");
}

TEST(RunFuzz, SweepIsCleanWithoutInjection) {
  // The same window that fails under injection passes on the clean tree.
  FuzzConfig config;
  config.seed = 1;
  config.count = 12;
  config.check = cheap();
  config.repro_dir = "";
  std::ostringstream out;
  EXPECT_FALSE(run_fuzz(config, out).failed);
}

}  // namespace
}  // namespace dlaja::fuzz
