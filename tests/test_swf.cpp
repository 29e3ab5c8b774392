// Tests for the Standard Workload Format adapter.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/engine.hpp"
#include "sched/spec.hpp"
#include "test_helpers.hpp"
#include "workload/swf.hpp"

namespace dlaja::workload {
namespace {

constexpr const char* kSample =
    "; Parallel Workloads Archive header\n"
    "; Version: 2.2\n"
    "\n"
    // job submit wait run procs cpu mem reqp reqt reqm status uid gid exe q part prec think
    "1 0    -1 100 4 -1 1048576 4 150 1048576 1 10 1 7 1 1 -1 -1\n"
    "2 30   -1 200 2 -1 -1      2 300 -1      1 11 1 7 1 1 -1 -1\n"
    "3 60   -1 -1  1 -1 -1      1 100 -1      0 12 1 8 1 1 -1 -1\n"  // failed: skipped
    "4 90   -1 50  1 -1 524288  1 80  524288  1 10 1 9 1 1 -1 -1\n"
    "5 120  -1 400 8 -1 -1      8 500 -1      1 13 1 -1 1 1 -1 -1\n";  // no exe -> user id

TEST(Swf, ParsesFieldsAndSkipsComments) {
  std::istringstream in(kSample);
  const auto records = parse_swf(in);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[0].submit_time_s, 0.0);
  EXPECT_EQ(records[0].run_time_s, 100.0);
  EXPECT_EQ(records[0].used_memory_kb, 1048576);
  EXPECT_EQ(records[0].executable, 7);
  EXPECT_EQ(records[2].run_time_s, -1.0);
  EXPECT_EQ(records[4].executable, -1);
}

TEST(Swf, ToleratesShortLinesRejectsGarbage) {
  {
    std::istringstream in("1 0 -1 100\n");  // truncated record
    const auto records = parse_swf(in);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].run_time_s, 100.0);
    EXPECT_EQ(records[0].executable, -1);
  }
  {
    // Strict mode keeps the historical abort-on-garbage contract.
    std::istringstream in("1 0 -1 abc\n");
    SwfParseOptions strict;
    strict.strict = true;
    EXPECT_THROW(parse_swf(in, strict), std::runtime_error);
  }
}

TEST(Swf, CorruptedLineIsSkippedAndCounted) {
  // One corrupted record in the middle of an otherwise clean archive must
  // not abort the load: the line is dropped, counted, and every healthy
  // record survives.
  std::istringstream in(
      "; header\n"
      "1 0  -1 100 1 -1 1048576 1 150 -1 1 10 1 7 1 1 -1 -1\n"
      "2 30 -1 2#X 1 -1 -1      1 300 -1 1 11 1 7 1 1 -1 -1\n"  // corrupted run time
      "3 60 -1 50  1 -1 524288  1 80  -1 1 12 1 9 1 1 -1 -1\n");
  SwfParseStats stats;
  const auto records = parse_swf(in, {}, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[1].job_number, 3);
  EXPECT_EQ(stats.data_lines, 3u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.malformed_lines, 1u);
  EXPECT_EQ(stats.first_bad_line, 3u);  // 1-based, counting the comment line
}

TEST(Swf, StrictModeNamesLineAndToken) {
  std::istringstream in(
      "1 0 -1 100 1 -1 -1 1 150 -1 1 10 1 7 1 1 -1 -1\n"
      "2 30 -1 oops 1 -1 -1 1 300 -1 1 11 1 7 1 1 -1 -1\n");
  SwfParseOptions strict;
  strict.strict = true;
  try {
    (void)parse_swf(in, strict);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("oops"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(Swf, CleanParseReportsZeroMalformed) {
  std::istringstream in(kSample);
  SwfParseStats stats;
  const auto records = parse_swf(in, {}, &stats);
  EXPECT_EQ(records.size(), 5u);
  EXPECT_EQ(stats.malformed_lines, 0u);
  EXPECT_EQ(stats.first_bad_line, 0u);
  EXPECT_EQ(stats.records, stats.data_lines);
}

TEST(Swf, ConversionMapsFieldsPerContract) {
  std::istringstream in(kSample);
  const auto workload = convert_swf(parse_swf(in), {});
  ASSERT_EQ(workload.jobs.size(), 4u);  // job 3 skipped (failed)

  // Jobs 1 and 4 share executable... no: exe 7 vs 9. Jobs 1 and 2 share
  // executable 7 -> the same resource.
  EXPECT_EQ(workload.jobs[0].resource, workload.jobs[1].resource);
  EXPECT_NE(workload.jobs[0].resource, workload.jobs[2].resource);

  // Resource size from used memory: 1048576 KB = 1024 MB.
  EXPECT_DOUBLE_EQ(workload.jobs[0].resource_size_mb, 1024.0);
  // Processing volume: run_time x 80 MB/s.
  EXPECT_DOUBLE_EQ(workload.jobs[0].process_mb, 100.0 * 80.0);
  // Arrival = submit time.
  EXPECT_EQ(workload.jobs[1].created_at, ticks_from_seconds(30.0));
  // No-executable job keyed by user id still gets a resource.
  EXPECT_GT(workload.jobs[3].resource, 0u);
  EXPECT_EQ(workload.jobs[3].key, "swf#5");
}

TEST(Swf, OptionsScaleAndCap) {
  std::istringstream in(kSample);
  SwfOptions options;
  options.time_scale = 0.5;
  options.max_jobs = 2;
  options.reference_rw_mbps = 10.0;
  const auto workload = convert_swf(parse_swf(in), options);
  ASSERT_EQ(workload.jobs.size(), 2u);
  EXPECT_EQ(workload.jobs[1].created_at, ticks_from_seconds(15.0));
  EXPECT_DOUBLE_EQ(workload.jobs[0].process_mb, 1000.0);
}

TEST(Swf, SizeClampApplies) {
  std::istringstream in(kSample);
  SwfOptions options;
  options.max_resource_mb = 100.0;  // 1024 MB memory clamps down
  const auto workload = convert_swf(parse_swf(in), options);
  EXPECT_DOUBLE_EQ(workload.jobs[0].resource_size_mb, 100.0);
}

TEST(Swf, SyntheticLogRoundTrips) {
  std::stringstream swf;
  write_synthetic_swf(swf, 200, 12, 42);
  const auto records = parse_swf(swf);
  ASSERT_EQ(records.size(), 200u);
  const auto workload = convert_swf(records, {});
  EXPECT_EQ(workload.jobs.size(), 200u);

  // Application reuse exists (locality has something to exploit).
  std::set<storage::ResourceId> distinct;
  for (const auto& job : workload.jobs) distinct.insert(job.resource);
  EXPECT_LT(distinct.size(), 15u);
  EXPECT_GT(distinct.size(), 2u);

  // Deterministic per seed.
  std::stringstream again;
  write_synthetic_swf(again, 200, 12, 42);
  EXPECT_EQ(swf.str(), again.str());
}

TEST(Swf, ConvertedWorkloadRunsUnderBothSchedulers) {
  std::stringstream swf;
  write_synthetic_swf(swf, 60, 8, 7);
  SwfOptions options;
  options.time_scale = 0.05;  // compress to keep the cluster busy
  options.reference_rw_mbps = 2.0;
  const auto workload = convert_swf(parse_swf(swf), options);

  double exec[2];
  int idx = 0;
  for (const std::string scheduler : {"bidding", "baseline"}) {
    core::Engine engine(testutil::uniform_fleet(4), sched::SchedulerSpec(scheduler).build(1),
                        testutil::noiseless());
    const auto report = engine.run(workload.jobs);
    EXPECT_EQ(report.jobs_completed, 60u) << scheduler;
    exec[idx++] = report.exec_time_s;
  }
  // With heavy application reuse, the locality scheduler wins on a real
  // trace shape too.
  EXPECT_LT(exec[0], exec[1]);
}

}  // namespace
}  // namespace dlaja::workload
