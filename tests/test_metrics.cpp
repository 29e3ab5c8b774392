// Unit tests for the metrics collector, run reports and aggregation.

#include <gtest/gtest.h>

#include <sstream>

#include "metrics/collector.hpp"
#include "metrics/registry.hpp"
#include "metrics/report.hpp"
#include "util/csv.hpp"

namespace dlaja::metrics {
namespace {

TEST(Collector, JobRecordsCreatedOnFirstTouch) {
  MetricsCollector collector(2);
  JobRecord& record = collector.job(7);
  EXPECT_EQ(record.id, 7u);
  EXPECT_EQ(collector.job_count(), 1u);
  EXPECT_EQ(&collector.job(7), &record);  // same record on re-access
  EXPECT_EQ(collector.find_job(8), nullptr);
}

TEST(Collector, ArrivalOrderPreserved) {
  MetricsCollector collector(1);
  collector.job(3);
  collector.job(1);
  collector.job(2);
  const auto jobs = collector.jobs_in_arrival_order();
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0]->id, 3u);
  EXPECT_EQ(jobs[1]->id, 1u);
  EXPECT_EQ(jobs[2]->id, 2u);
}

TEST(Collector, WorkerIndexValidated) {
  MetricsCollector collector(2);
  EXPECT_NO_THROW((void)collector.worker(1));
  EXPECT_THROW((void)collector.worker(2), std::out_of_range);
}

TEST(Collector, PaperMetricAggregates) {
  MetricsCollector collector(2);
  JobRecord& a = collector.job(1);
  a.cache_miss = true;
  a.downloaded_mb = 100.0;
  a.finished = ticks_from_seconds(10.0);
  JobRecord& b = collector.job(2);
  b.downloaded_mb = 0.0;
  b.finished = ticks_from_seconds(20.0);
  collector.job(3);  // incomplete

  EXPECT_EQ(collector.total_cache_misses(), 1u);
  EXPECT_EQ(collector.total_data_load_mb(), 100.0);
  EXPECT_EQ(collector.last_completion(), ticks_from_seconds(20.0));
  EXPECT_EQ(collector.completed_jobs(), 2u);
}

TEST(Report, DerivesLatenciesAndHitRate) {
  MetricsCollector collector(1);
  JobRecord& a = collector.job(1);
  a.worker = 0;
  a.arrived = ticks_from_seconds(0.0);
  a.assigned = ticks_from_seconds(1.0);
  a.started = ticks_from_seconds(2.0);
  a.finished = ticks_from_seconds(5.0);
  a.cache_miss = true;
  a.downloaded_mb = 50.0;

  JobRecord& b = collector.job(2);
  b.worker = 0;
  b.arrived = ticks_from_seconds(10.0);
  b.assigned = ticks_from_seconds(10.5);
  b.started = ticks_from_seconds(11.0);
  b.finished = ticks_from_seconds(12.0);
  b.cache_miss = false;  // hit

  const RunReport report = make_report(collector, collector.last_completion());
  EXPECT_DOUBLE_EQ(report.exec_time_s, 12.0);
  EXPECT_EQ(report.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(report.data_load_mb, 50.0);
  EXPECT_EQ(report.jobs_completed, 2u);
  EXPECT_DOUBLE_EQ(report.avg_turnaround_s, (5.0 + 2.0) / 2.0);
  EXPECT_DOUBLE_EQ(report.avg_alloc_latency_s, (1.0 + 0.5) / 2.0);
  EXPECT_DOUBLE_EQ(report.avg_queue_wait_s, (1.0 + 0.5) / 2.0);
  EXPECT_DOUBLE_EQ(report.cache_hit_rate, 0.5);
}

TEST(Report, EmptyRunIsAllZero) {
  MetricsCollector collector(1);
  const RunReport report = make_report(collector, 0);
  EXPECT_EQ(report.exec_time_s, 0.0);
  EXPECT_EQ(report.jobs_completed, 0u);
  EXPECT_EQ(report.cache_hit_rate, 0.0);
}

TEST(Report, IncompleteJobsExcludedFromLatencyStats) {
  MetricsCollector collector(1);
  JobRecord& a = collector.job(1);
  a.arrived = 0;  // never finished
  const RunReport report = make_report(collector, 0);
  EXPECT_EQ(report.jobs_submitted, 1u);
  EXPECT_EQ(report.jobs_completed, 0u);
  EXPECT_EQ(report.avg_turnaround_s, 0.0);
}

TEST(Report, CsvExportHasHeaderAndRows) {
  RunReport r;
  r.scheduler = "bidding";
  r.workload = "80%_large";
  r.worker_config = "fast-slow";
  r.exec_time_s = 123.4;
  r.cache_misses = 7;
  std::ostringstream out;
  write_reports_csv(out, {r, r});
  const auto rows = csv_parse(out.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "scheduler");
  EXPECT_EQ(rows[1][0], "bidding");
  EXPECT_EQ(rows[1][1], "80%_large");
}

TEST(Aggregator, GroupsAndAverages) {
  Aggregator agg;
  RunReport r1;
  r1.exec_time_s = 10.0;
  r1.cache_misses = 4;
  r1.data_load_mb = 100.0;
  RunReport r2;
  r2.exec_time_s = 20.0;
  r2.cache_misses = 6;
  r2.data_load_mb = 300.0;
  agg.add("bidding|80%_large", r1);
  agg.add("bidding|80%_large", r2);
  agg.add("baseline|80%_large", r1);

  const AggregateCell& cell = agg.cell("bidding|80%_large");
  EXPECT_EQ(cell.exec_time_s.count(), 2u);
  EXPECT_DOUBLE_EQ(cell.exec_time_s.mean(), 15.0);
  EXPECT_DOUBLE_EQ(cell.cache_misses.mean(), 5.0);
  EXPECT_DOUBLE_EQ(cell.data_load_mb.mean(), 200.0);

  EXPECT_TRUE(agg.has("baseline|80%_large"));
  EXPECT_FALSE(agg.has("nope"));
  EXPECT_THROW((void)agg.cell("nope"), std::out_of_range);
  EXPECT_EQ(agg.keys().size(), 2u);
  EXPECT_EQ(agg.keys()[0], "bidding|80%_large");  // insertion order
}

TEST(Histogram, EmptyPercentileIsZero) {
  // An empty histogram has no rank to locate; percentile() mirrors
  // min()/max()/mean() and reports 0.0 for every p rather than reading
  // uninitialised bucket state.
  const Histogram empty;
  for (const double p : {0.0, 50.0, 95.0, 100.0}) {
    EXPECT_EQ(empty.percentile(p), 0.0) << "p=" << p;
  }
}

}  // namespace
}  // namespace dlaja::metrics
