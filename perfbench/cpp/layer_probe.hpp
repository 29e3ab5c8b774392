#pragma once
// Outside-in timing of the scheduler and worker-estimation layers.
//
// TimedScheduler forwards every Scheduler virtual to the scheduler the spec
// builds and times the calls from outside: submit() (the master's decision),
// the completion/idle/capacity callbacks, and — on every kEstimateStride-th
// submit — one WorkerNode::estimate_bid_s call on a live worker. The
// estimate is a const query that draws no RNG and does not touch cache LRU
// order, and the wrapper hands the context through unchanged, so a wrapped
// run reports exactly what an unwrapped one does (the harness checks this
// bit for bit on every traced run).

#include <cstdint>
#include <memory>
#include <vector>

#include "sched/scheduler.hpp"

namespace perfbench {

/// Submits between two timed estimate calls. Timing estimates on every
/// submit made the saturation workload ~1.5x slower; one in eight keeps the
/// traced run close to the untraced one.
inline constexpr std::uint64_t kEstimateStride = 8;

/// Everything the wrappers record. One instance outlives every wrapper a
/// traced process creates (one per iteration of every traced run).
struct LayerSamples {
  std::vector<double> submit_ns;
  std::vector<double> estimate_ns;
  /// |winning bid - (finished - assigned)| / (finished - assigned).
  std::vector<double> bid_rel_error;
  double submit_total_ns = 0.0;
  double callback_total_ns = 0.0;
  double estimate_total_ns = 0.0;
  std::uint64_t callbacks = 0;
  std::uint64_t telemetry_samples = 0;

  /// Host time spent inside the wrapped calls (what the residual excludes).
  [[nodiscard]] double wrapped_ns() const noexcept {
    return submit_total_ns + callback_total_ns + estimate_total_ns;
  }
};

class TimedScheduler final : public dlaja::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<dlaja::sched::Scheduler> inner, LayerSamples& out);

  [[nodiscard]] std::string name() const override;
  void attach(const dlaja::sched::SchedulerContext& ctx) override;
  void submit(const dlaja::workflow::Job& job) override;
  void on_completion(const dlaja::cluster::CompletionReport& report) override;
  void on_worker_idle(dlaja::cluster::WorkerIndex w) override;
  void on_worker_capacity(dlaja::cluster::WorkerIndex w) override;
  void on_worker_recovered(dlaja::cluster::WorkerIndex w) override;
  void on_assignment_void(dlaja::workflow::JobId id, dlaja::cluster::WorkerIndex w) override;
  void on_scheduler_crash(std::uint32_t instance) override;
  void on_scheduler_recovered(std::uint32_t instance) override;
  [[nodiscard]] std::size_t pending_jobs() const override;
  [[nodiscard]] bool supports_sharding() const override;

 private:
  /// Times one estimate_bid_s(job) on the next live worker in a fixed walk
  /// over the fleet (no RNG: the walk must not perturb the run).
  void sample_estimate(const dlaja::workflow::Job& job);
  void record_bid_error(dlaja::workflow::JobId id);

  std::unique_ptr<dlaja::sched::Scheduler> inner_;
  LayerSamples& out_;
  std::vector<dlaja::cluster::WorkerNode*> workers_;
  const dlaja::metrics::MetricsCollector* metrics_ = nullptr;
  std::uint64_t submits_ = 0;
  std::size_t next_worker_ = 0;
};

}  // namespace perfbench
