#pragma once
// Federated multi-scheduler control plane.
//
// N concurrent scheduler instances share one fleet, each owning a worker
// partition and running the spec's policy over it in isolation: instance p
// sees a masked SchedulerContext whose out-of-partition worker slots are
// null, gets its own broker node (so its mailboxes never collide with a
// sibling's), its own topic scope ("fed<p>/") and its own seed substream.
// Any existing policy runs unmodified inside a partition.
//
// Coordination is deliberately thin and eventually consistent:
//
//   routing   A submitted job is homed by a round-robin walk over the
//             partition map (size-weighted partitions get proportionally
//             more of the ring) and sent to its home instance as a RouteJob
//             message — the master never touches partition-internal state.
//   digests   Each instance with outstanding work periodically publishes a
//             LoadDigest (queued+running jobs per live worker) on the
//             shared "fed/digests" topic, plus one final digest when it
//             drains, then disarms — timers never hold the simulator open.
//   spill     An overloaded instance (own load > spill_threshold) forwards
//             an incoming job once (hops == 1 max, loop-free) to the
//             lightest partition whose digest is fresher than the
//             staleness bound. Stale digests make a partition invisible —
//             the staleness bound is the consistency contract.
//   crashes   A fault-plan "sched_crash" clause downs an instance: its node
//             stops receiving (routes, bids, work requests park or drop),
//             and after adoption_grace_s the configured successor adopts
//             every routed job the crashed instance had not yet committed
//             to a worker. Jobs already assigned ride out on their workers;
//             completions are deduplicated by the engine (the same
//             at-least-once machinery that absorbs dup:p message faults),
//             so `submitted == completed + dead_lettered` survives a crash.
//
// With fault injection active a resend watchdog re-sends routes that
// strand in flight (their target crashed before delivery); when every
// instance is down the lifecycle dead-letters the job instead of losing it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/live_workers.hpp"
#include "sched/spec.hpp"

namespace dlaja::sched {

/// Cumulative control-plane counters, exposed for tests and folded into the
/// metrics registry ("fed.*" columns) as they happen.
struct FederationStats {
  std::uint64_t routed = 0;    ///< jobs sent to a home instance
  std::uint64_t spills = 0;    ///< cross-partition forwards
  std::uint64_t digests = 0;   ///< load digests published
  std::uint64_t adoptions = 0; ///< jobs re-homed after a scheduler crash
  std::uint64_t resends = 0;   ///< watchdog route retransmissions
};

class FederatedScheduler : public Scheduler {
 public:
  /// Builds the `spec.federation.partitions` policy instances up front
  /// (throws std::invalid_argument on a bad policy spec, as
  /// SchedulerSpec::build_policy does). Worker partitions and broker wiring
  /// happen in attach().
  FederatedScheduler(const SchedulerSpec& spec, std::uint64_t seed);

  [[nodiscard]] std::string name() const override;
  void attach(const SchedulerContext& ctx) override;
  void submit(const workflow::Job& job) override;
  void on_completion(const cluster::CompletionReport& report) override;
  void on_worker_idle(cluster::WorkerIndex w) override;
  void on_worker_capacity(cluster::WorkerIndex w) override;
  void on_worker_recovered(cluster::WorkerIndex w) override;
  void on_assignment_void(workflow::JobId id, cluster::WorkerIndex w) override;
  void on_scheduler_crash(std::uint32_t instance) override;
  void on_scheduler_recovered(std::uint32_t instance) override;
  [[nodiscard]] std::size_t pending_jobs() const override;

  [[nodiscard]] const FederationStats& stats() const noexcept { return stats_; }

  /// The partition worker `w` was placed in (valid after attach()).
  [[nodiscard]] std::uint32_t partition_of(cluster::WorkerIndex w) const {
    return part_of_[w];
  }

  /// Queued+running routed jobs per live worker of partition `p` — the
  /// quantity digests advertise and the spill threshold compares against.
  [[nodiscard]] double own_load(std::uint32_t p) const;

 private:
  /// Lifecycle of one routed job, tracked master-side. std::map keeps the
  /// watchdog / adoption scans in deterministic id order.
  struct Routed {
    workflow::Job job;
    std::uint32_t partition = 0;  ///< current home instance
    enum class State : std::uint8_t {
      kRouting,   ///< RouteJob in flight to `partition`
      kQueued,    ///< accepted by the instance's policy, not yet on a worker
      kAssigned,  ///< committed to a worker (lease started)
    } state = State::kRouting;
    Tick sent_at = 0;
    std::uint32_t hops = 0;  ///< cross-partition forwards so far (max 1)
  };

  struct Instance {
    std::unique_ptr<Scheduler> policy;
    std::unique_ptr<SeedSequencer> seeds;  ///< policy substream root
    net::NodeId node = net::kInvalidNode;
    /// The masked view the policy attached with: workers outside the
    /// partition are null, so `live` indexes the partition's live members.
    SchedulerContext ctx;
    mutable LiveWorkers live;
    bool down = false;
    bool digest_armed = false;
    std::uint64_t outstanding = 0;  ///< routed jobs homed here (queued or assigned)
    /// This instance's believed fleet load, refreshed only by digests
    /// (eventual consistency): per-partition load and receipt stamp
    /// (kNeverSeen until the first digest arrives).
    std::vector<double> view_load;
    std::vector<Tick> view_at;
  };

  static constexpr Tick kNeverSeen = -1;

  [[nodiscard]] std::uint32_t partitions() const noexcept {
    return static_cast<std::uint32_t>(inst_.size());
  }
  [[nodiscard]] std::size_t live_members(std::uint32_t p) const;
  /// Next live partition on the routing ring, or partitions() if all down.
  [[nodiscard]] std::uint32_t pick_home();
  /// Spill target for a job arriving at `p`, or partitions() to keep it.
  [[nodiscard]] std::uint32_t pick_spill_target(std::uint32_t p) const;
  [[nodiscard]] std::uint32_t successor_of(std::uint32_t crashed) const;

  void route(workflow::JobId id, Routed& entry, std::uint32_t target,
             std::uint32_t hops, net::NodeId from);
  void on_route(std::uint32_t p, const cluster::RouteJob& route);
  void on_digest(std::uint32_t p, const cluster::LoadDigest& digest);
  void mark_assigned(workflow::JobId id);
  void drop_routed(std::map<workflow::JobId, Routed>::iterator it);
  void arm_digest(std::uint32_t p);
  void tick_digest(std::uint32_t p);
  void arm_watchdog();
  void tick_watchdog();
  void adopt(std::uint32_t crashed);
  void count(const char* name, double delta) const;

  SchedulerSpec spec_;
  std::uint64_t seed_ = 1;
  SchedulerContext ctx_;
  Tick digest_interval_ = 0;
  Tick staleness_bound_ = 0;
  Tick adoption_grace_ = 0;

  msg::TopicId digest_topic_ = msg::kInvalidInterned;
  msg::MailboxId fed_jobs_box_ = msg::kInvalidInterned;

  std::vector<std::uint32_t> part_of_;  ///< worker -> partition
  std::vector<Instance> inst_;
  std::map<workflow::JobId, Routed> routed_;
  std::size_t routing_count_ = 0;  ///< entries in State::kRouting
  std::uint64_t cursor_ = 0;       ///< routing ring position (worker index space)
  bool watchdog_armed_ = false;
  FederationStats stats_;
};

}  // namespace dlaja::sched
