#pragma once
// Spark-like centralized comparator for the Figure 2 experiment.
//
// The paper attributes Spark's slowdown on the MSR workload to three
// properties of its task allocation (§4): (i) all allocation happens in
// advance / centrally at the master, (ii) resources that become local
// *during* execution are ignored, and (iii) all workers are treated as
// equal, so slow workers receive as much work as fast ones. This
// comparator reproduces exactly those properties: the master assigns each
// arriving job immediately, round-robin (or by static resource hash),
// without consulting worker state, speeds, or runtime cache contents.
//
// Spark's five locality levels with a wait threshold act on *pre-known*
// block locations. In this workload no resource is local before execution
// starts (repositories are cloned on demand), so the locality-wait always
// degrades to ANY — which is why a static policy is the faithful model;
// the `kHashByResource` mode adds the consistent-placement benefit a Spark
// partitioner could provide, as an upper bound for the comparison.

#include <cstdint>
#include <deque>

#include "sched/live_workers.hpp"
#include "sched/scheduler.hpp"

namespace dlaja::sched {

struct SparkLikeConfig {
  enum class Placement {
    kRoundRobin,      ///< equal treatment, ignores data entirely (default)
    kHashByResource,  ///< static partitioning: same resource -> same worker
  };
  Placement placement = Placement::kRoundRobin;

  /// Stage semantics: tasks execute in waves of one task per worker with a
  /// barrier between waves (Spark schedules a stage's tasks together and a
  /// stage finishes with its slowest task; a straggling worker therefore
  /// gates every wave). false = streaming push, one assignment per arrival.
  bool wave_barrier = false;
};

class SparkLikeScheduler final : public Scheduler {
 public:
  explicit SparkLikeScheduler(SparkLikeConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    std::string name = "spark-like";
    if (config_.wave_barrier) name += "+wave";
    if (config_.placement == SparkLikeConfig::Placement::kHashByResource) name += "+hash";
    return name;
  }

  void attach(const SchedulerContext& ctx) override;
  void submit(const workflow::Job& job) override;
  void on_completion(const cluster::CompletionReport& report) override;
  void on_assignment_void(workflow::JobId id, cluster::WorkerIndex w) override;
  [[nodiscard]] std::size_t pending_jobs() const override { return pending_.size(); }

 private:
  [[nodiscard]] cluster::WorkerIndex place(const workflow::Job& job);
  /// Returns false when the job could not be placed (all workers dead) and
  /// was handed to the lifecycle instead.
  bool assign(const workflow::Job& job);
  void dispatch_wave();
  /// Wave mode: a wave slot opened (completion or voided assignment).
  void wave_slot_freed();

  /// Defers dispatch_wave() by one (zero-length) event so that all tasks
  /// submitted at the same instant batch into one wave.
  void schedule_dispatch();

  /// Interns the scheduler's span names on first traced use.
  void ensure_trace_names();

  SparkLikeConfig config_;
  SchedulerContext ctx_;
  /// Registry instruments fed per wave, found on first use (reset by attach()).
  metrics::LazyRef<metrics::Counter> waves_;
  metrics::LazyRef<metrics::Histogram> wave_size_;
  metrics::LazyRef<metrics::Histogram> wave_s_;
  LiveWorkers live_;  ///< wave mode: one task per live worker
  std::uint64_t cursor_ = 0;
  std::deque<workflow::Job> pending_;  ///< wave mode: tasks awaiting a wave slot
  std::size_t outstanding_ = 0;        ///< wave mode: tasks in the current wave
  bool dispatch_pending_ = false;      ///< a zero-delay dispatch event is queued
  Tick wave_started_ = 0;              ///< wave mode: when the current wave launched
  std::uint64_t wave_index_ = 0;       ///< wave mode: allocation-round ordinal
  std::uint16_t trace_wave_ = 0;       ///< "wave": dispatch -> barrier span
  bool trace_names_ready_ = false;
};

}  // namespace dlaja::sched
