#pragma once
// The simulated worker node.
//
// A worker owns a FIFO queue of assigned jobs (the paper: "worker nodes
// schedule tasks in FIFO order"), a local resource cache, and nominal
// network / read-write speeds. It provides the two halves of the paper's
// worker logic:
//
//   * estimation (Listing 2, sendBid): backlog cost + data-transfer
//     estimate + processing estimate, computed from the speed estimators
//     (nominal speeds in §6.3, historic averages in §6.4);
//   * execution (Listing 2, consumeJob): on a cache miss the resource is
//     downloaded at a noise-perturbed effective bandwidth (recording the
//     cache miss and the data load), then the job is processed at a
//     noise-perturbed read/write speed.
//
// The worker is protocol-agnostic: schedulers drive it through enqueue()
// and the estimation queries, and observe it through the on_complete /
// on_idle callbacks.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/protocol.hpp"
#include "cluster/speed_estimator.hpp"
#include "metrics/collector.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/cache.hpp"
#include "workflow/workflow.hpp"

namespace dlaja::cluster {

/// A std::deque that holds no heap block until its first push. libstdc++'s
/// deque allocates its map and one ~512-byte node at construction, even
/// empty, and most workers of a large fleet never hold a job; a queue that
/// has held one keeps std::deque's behaviour. Before the first push it is an
/// empty range (value-initialised deque iterators compare equal).
template <typename T>
class LazyDeque {
 public:
  using iterator = typename std::deque<T>::iterator;
  using const_iterator = typename std::deque<T>::const_iterator;

  [[nodiscard]] bool empty() const noexcept { return !items_ || items_->empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_ ? items_->size() : 0; }
  [[nodiscard]] iterator begin() noexcept { return items_ ? items_->begin() : iterator{}; }
  [[nodiscard]] iterator end() noexcept { return items_ ? items_->end() : iterator{}; }
  [[nodiscard]] const_iterator begin() const noexcept {
    return items_ ? items_->cbegin() : const_iterator{};
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return items_ ? items_->cend() : const_iterator{};
  }
  /// front(), back() and pop_front() require a non-empty queue.
  [[nodiscard]] T& front() { return items_->front(); }
  [[nodiscard]] T& back() { return items_->back(); }
  void pop_front() { items_->pop_front(); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (!items_) items_.emplace();
    return items_->emplace_back(std::forward<Args>(args)...);
  }

  /// Drops every item and the heap blocks that held them.
  void reset() noexcept { items_.reset(); }

 private:
  std::optional<std::deque<T>> items_;
};

class WorkerNode {
 public:
  /// `node` must already be registered with `network` using the worker's
  /// link characteristics. `estimation_mode` selects nominal (§6.3) or
  /// historic-average (§6.4) speeds for bids.
  WorkerNode(WorkerIndex index, const WorkerConfig& config, sim::Simulator& simulator,
             net::NetworkModel& network, net::NodeId node,
             metrics::MetricsCollector& metrics, const SeedSequencer& seeds,
             SpeedEstimator::Mode estimation_mode = SpeedEstimator::Mode::kNominal);

  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  // --- Estimation (pure queries; never touch the metrics) ---------------

  /// True if the job's resource is resident locally (or it needs none).
  [[nodiscard]] bool has_local(const workflow::Job& job) const noexcept;

  /// True if the resource is resident *or will be*: a job already accepted
  /// into the FIFO queue (or in flight) downloads it before any later job
  /// runs. Listing 2's estimate covers "all unfinished jobs that have been
  /// previously allocated", so a worker quoting a job whose resource is
  /// pending quotes zero transfer for it.
  [[nodiscard]] bool has_local_or_pending(storage::ResourceId resource) const noexcept;

  /// Estimated seconds to finish every unfinished job already allocated:
  /// the remaining estimate of the in-flight job plus the estimates of all
  /// queued jobs (Listing 2 line 2, totalCostOfUnfinishedJobs). O(slots +
  /// queue) additions; the per-job terms are re-priced only when the cache's
  /// membership or a speed estimate moved since the last walk.
  [[nodiscard]] double backlog_cost_s() const;

  /// Estimated seconds to obtain the job's resource: 0 when cached, else
  /// size / estimated network speed (Listing 2 line 4).
  [[nodiscard]] double estimate_transfer_s(const workflow::Job& job) const;

  /// Estimated seconds to process: volume / estimated rw speed plus the
  /// job's fixed cost (Listing 2 line 5).
  [[nodiscard]] double estimate_processing_s(const workflow::Job& job) const;

  /// The full bid: backlog + transfer + processing (Listing 2 lines 2-5).
  [[nodiscard]] double estimate_bid_s(const workflow::Job& job) const;
  /// The same bid from a backlog_cost_s() the caller has already read in
  /// this state, so a caller that also reports the backlog walks once.
  [[nodiscard]] double estimate_bid_s(const workflow::Job& job, double backlog_s) const;

  /// Samples the delay before this worker's bid reaches the wire: the
  /// bidding thread's compute time, occasionally stretched by a straggle
  /// (which can exceed the master's window). Deterministic per stream.
  [[nodiscard]] Tick sample_bid_delay();

  // --- Execution --------------------------------------------------------

  /// Accepts an assignment into the FIFO queue and starts it if idle.
  /// Assignments to a failed worker are dropped (no fault tolerance — the
  /// paper explicitly leaves this open; see §5).
  void enqueue(const workflow::Job& job);

  /// enqueue(job), then backlog_cost_s(). `backlog_before_s` must be the
  /// backlog_cost_s() read in this very state (same tick, nothing changed
  /// since). A job that queues behind busy slots is the walk's last step,
  /// so its two terms continue that fold in O(1), bit for bit; a job that
  /// starts at once (or is dropped by a failed worker) walks again.
  [[nodiscard]] double enqueue_and_backlog(const workflow::Job& job, double backlog_before_s);

  /// Routes this worker's bulk downloads through a shared-bandwidth flow
  /// network instead of the independent-bandwidth model. Call before any
  /// job executes. The worker keeps estimating with its nominal bandwidth
  /// (it cannot know future contention), so estimates degrade honestly
  /// under congestion.
  void set_flow_network(net::FlowNetwork* flows) noexcept { flows_ = flows; }

  /// Simulates the §6.4 up-front speed probe: measures effective network
  /// and rw speed on a `probe_mb` resource and seeds the estimators.
  void probe_speeds(MegaBytes probe_mb = 100.0);

  /// Kills / revives the worker. Killing cancels in-flight completions and
  /// drains the queue; the jobs that were lost (in-flight + queued, FIFO
  /// order) are *returned* so a fault-tolerant caller can resubmit them —
  /// the paper itself has no such policy (§5) and simply drops them.
  /// Reviving returns an empty vector; callers re-probe and re-register the
  /// worker themselves.
  [[nodiscard]] std::vector<workflow::Job> set_failed(bool failed);

  /// True if `id` is currently held by this worker (queued or in flight).
  /// Used by the lifecycle's lease probe.
  [[nodiscard]] bool has_job(workflow::JobId id) const noexcept;

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// Current tick of the simulator this worker runs on. Telemetry keys its
  /// per-sample backlog memo on this.
  [[nodiscard]] Tick now() const noexcept { return sim_.now(); }
  [[nodiscard]] bool busy() const noexcept { return busy_slots() > 0; }
  [[nodiscard]] bool idle() const noexcept { return !busy() && queue_.empty(); }
  /// Occupied execution slots (0..config().slots).
  [[nodiscard]] std::size_t busy_slots() const noexcept;
  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }
  [[nodiscard]] WorkerIndex index() const noexcept { return index_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const WorkerConfig& config() const noexcept { return config_; }
  [[nodiscard]] storage::ResourceCache& cache() noexcept { return cache_; }
  [[nodiscard]] const storage::ResourceCache& cache() const noexcept { return cache_; }
  [[nodiscard]] SpeedEstimator& network_estimator() noexcept { return net_est_; }
  [[nodiscard]] SpeedEstimator& rw_estimator() noexcept { return rw_est_; }

  /// The backlog's work counters since construction, kept out of the
  /// metrics registry so no report moves: walks that re-priced every queued
  /// job's terms, and queued jobs folded by walks (the O(1) continuation of
  /// enqueue_and_backlog folds none).
  [[nodiscard]] std::uint64_t backlog_reprices() const noexcept { return reprices_; }
  [[nodiscard]] std::uint64_t backlog_fold_steps() const noexcept { return fold_steps_; }

 private:
  /// The tests' full-replay reference for backlog_cost_s.
  friend struct BacklogOracle;

  /// One parallel execution lane.
  struct ExecSlot {
    workflow::Job job;
    Tick est_finish = 0;  ///< frozen completion estimate (backlog queries)
    sim::EventId event{};
    net::FlowId flow{};
    Tick transfer_started = 0;
  };

  /// Starts queued jobs on free slots (FIFO order).
  void fill_slots();
  /// Phase 1 of a missing-resource job: the download (fixed-duration event
  /// or shared flow).
  void begin_transfer(std::size_t slot);
  /// Transfer done: admit the clone, move to processing.
  void complete_transfer(std::size_t slot);
  /// Phase 2: processing (always a fixed-duration event).
  void begin_processing(std::size_t slot, Tick transfer_ticks_taken,
                        MegaBytes transferred_mb, bool was_miss);
  void finish_slot(std::size_t slot, Tick duration, Tick transfer_ticks_taken,
                   MegaBytes transferred_mb, bool was_miss);
  /// A finished job's resource left the slots: drops its pending count and,
  /// when no slot holds it any more, makes the earliest queued job on it
  /// the one that pays its transfer.
  void release(storage::ResourceId resource);

  /// What backlog_cost_s needs of each queued job, kept in lockstep with
  /// queue_: the Job fields it prices from, and the job's two terms of the
  /// walk, so a walk is a dense left fold over ~56 bytes per job (the walk
  /// sits on the bidding and telemetry hot paths).
  struct QueuedCost {
    storage::ResourceId resource = 0;
    MegaBytes resource_size_mb = 0.0;
    MegaBytes process_mb = 0.0;
    Tick fixed_cost = 0;
    /// No running slot and no earlier queued job holds `resource`, so this
    /// job downloads it unless it is cached. Set at enqueue; it changes
    /// only in release().
    bool first = false;
    /// size / net speed when first and not cached, else 0.0.
    mutable double transfer_s = 0.0;
    /// process / rw speed + fixed cost.
    mutable double work_s = 0.0;
  };
  /// The state the terms depend on besides the queue: the cache's
  /// membership version and both speeds as the walk divides by them.
  struct PriceKey {
    std::uint64_t cache_version = 0;
    double net_speed = 0.0;
    double rw_speed = 0.0;
    friend bool operator==(const PriceKey&, const PriceKey&) = default;
  };
  [[nodiscard]] PriceKey price_key() const noexcept;
  /// Sets one job's terms from the state `key` describes.
  void price(const QueuedCost& job, const PriceKey& key) const;
  /// Prices one new or newly-first job if every other term is current; if
  /// not, marks them all stale, so a walk re-prices even should the state
  /// return to the one they were priced in.
  void price_one(const QueuedCost& job);
  /// The key every queued job's terms were priced under; kStale forces the
  /// next walk to re-price (the cache's version never reaches it).
  static constexpr std::uint64_t kStale = ~std::uint64_t{0};

  /// Interns the worker's span names on first traced use.
  void ensure_trace_names();

  // Members are declared hot first: a bid (the bid-request handler,
  // backlog_cost_s, estimate_bid_s and sample_bid_delay) reads the block
  // below, so probing a worker that holds no job touches a few adjacent
  // cache lines. Execution state, configuration and callbacks follow.
  sim::Simulator& sim_;
  bool failed_ = false;
  bool trace_names_ready_ = false;
  std::uint16_t trace_transfer_ = 0;  ///< "transfer": miss download span
  std::uint16_t trace_process_ = 0;   ///< "process": processing span
  /// Execution lanes; null = free. Size == config().slots.
  std::vector<std::unique_ptr<ExecSlot>> slots_;
  SpeedEstimator net_est_;
  SpeedEstimator rw_est_;
  RandomStream bid_rng_;  ///< bid-delay / straggle draws
  mutable PriceKey priced_{kStale, 0.0, 0.0};
  mutable std::uint64_t reprices_ = 0;
  mutable std::uint64_t fold_steps_ = 0;
  LazyDeque<QueuedCost> queue_costs_;
  /// Resources of unfinished (in-flight + queued) jobs, with multiplicity.
  std::unordered_map<storage::ResourceId, std::uint32_t> pending_resources_;
  WorkerConfig config_;
  storage::ResourceCache cache_;

  LazyDeque<workflow::Job> queue_;
  WorkerIndex index_;
  net::NodeId node_;
  net::NetworkModel& net_;
  metrics::MetricsCollector& metrics_;
  RandomStream disk_rng_;  ///< rw-speed noise draws
  net::FlowNetwork* flows_ = nullptr;
  metrics::LazyRef<metrics::Histogram> transfer_s_hist_;
  metrics::LazyRef<metrics::Histogram> transfer_mb_hist_;
  metrics::LazyRef<metrics::Histogram> job_s_hist_;

 public:
  /// Invoked (if set) when a job finishes, before the next one starts.
  std::function<void(const workflow::Job&, WorkerIndex)> on_complete;

  /// Invoked (if set) when the worker becomes idle (queue drained).
  std::function<void(WorkerIndex)> on_idle;
};

}  // namespace dlaja::cluster
