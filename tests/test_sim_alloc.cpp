// Allocation discipline of the event core: the schedule->fire path must not
// touch the general heap for inline-budget captures once the simulator's
// slabs are warm, oversized captures must recycle pooled chunks, and the
// generation-tagged ids must make stale handles inert across slot reuse.
// A worker that holds no job holds no queue block. Allocations are counted
// by the global operator new that counting_new.hpp replaces.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/worker.hpp"
#include "counting_new.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace dlaja;

constexpr int kEvents = 512;

TEST(SimAlloc, ScheduleFireInlineCapturesIsAllocationFree) {
  sim::Simulator simulator;
  simulator.reserve(kEvents);
  std::uint64_t sum = 0;

  const auto round = [&] {
    for (int i = 0; i < kEvents; ++i) {
      auto fn = [&sum, i] { sum += static_cast<std::uint64_t>(i); };
      static_assert(sim::InlineAction::fits_inline<decltype(fn)>());
      simulator.schedule_after(i % 17, fn);
    }
    simulator.run();
  };

  round();  // warm: slabs sized, free list populated
  const std::size_t before = counting_new::allocations.load();
  round();
  round();
  EXPECT_EQ(counting_new::allocations.load(), before);
  EXPECT_EQ(simulator.fired(), static_cast<std::uint64_t>(3 * kEvents));
}

TEST(SimAlloc, ScheduleCancelIsAllocationFree) {
  sim::Simulator simulator;
  simulator.reserve(kEvents);
  std::vector<sim::EventId> ids;
  ids.reserve(kEvents);

  const auto round = [&] {
    ids.clear();
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(simulator.schedule_after(1000 + i, [] {}));
    }
    for (const auto id : ids) {
      EXPECT_TRUE(simulator.cancel(id));
    }
  };

  round();
  const std::size_t before = counting_new::allocations.load();
  round();
  round();
  EXPECT_EQ(counting_new::allocations.load(), before);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(SimAlloc, OversizedCapturesRecyclePooledChunks) {
  sim::Simulator simulator;
  simulator.reserve(8);
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 12> payload{};
  payload.fill(7);

  const auto schedule_big = [&simulator, &sum, payload] {
    auto fn = [&sum, payload] { sum += payload[0]; };
    static_assert(!sim::InlineAction::fits_inline<decltype(fn)>());
    simulator.schedule_after(1, fn);
  };

  schedule_big();
  simulator.run();  // first pass may carve fresh chunks
  const auto warm = sim::detail::pool_stats();
  schedule_big();
  simulator.run();
  const auto after = sim::detail::pool_stats();
  EXPECT_EQ(after.fresh_allocations, warm.fresh_allocations);
  EXPECT_GT(after.pool_hits, warm.pool_hits);
  EXPECT_EQ(sum, 14u);
}

TEST(SimAlloc, GenerationTagMakesStaleIdsInert) {
  sim::Simulator simulator;
  int fired_a = 0;
  int fired_b = 0;
  const auto a = simulator.schedule_after(10, [&fired_a] { ++fired_a; });
  ASSERT_TRUE(simulator.cancel(a));

  // The slot is recycled; the stale handle must not cancel the new tenant.
  const auto b = simulator.schedule_after(10, [&fired_b] { ++fired_b; });
  EXPECT_FALSE(simulator.cancel(a));
  simulator.run();
  EXPECT_EQ(fired_a, 0);
  EXPECT_EQ(fired_b, 1);
  EXPECT_FALSE(simulator.cancel(b));  // already fired
}

TEST(SimAlloc, StaleIdStaysInertAcrossManySlotReuses) {
  sim::Simulator simulator;
  const auto first = simulator.schedule_after(1, [] {});
  ASSERT_TRUE(simulator.cancel(first));
  for (int i = 0; i < 1000; ++i) {
    const auto id = simulator.schedule_after(1, [] {});
    EXPECT_FALSE(simulator.cancel(first));
    ASSERT_TRUE(simulator.cancel(id));
  }
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(SimAlloc, CancelOwnIdWhileFiringFails) {
  sim::Simulator simulator;
  sim::EventId self{};
  bool cancelled = true;
  self = simulator.schedule_after(5, [&] { cancelled = simulator.cancel(self); });
  simulator.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(simulator.fired(), 1u);
}

TEST(SimAlloc, ActionMayCancelAnotherPendingEvent) {
  sim::Simulator simulator;
  int fired_victim = 0;
  const auto victim = simulator.schedule_after(10, [&fired_victim] { ++fired_victim; });
  bool cancel_result = false;
  simulator.schedule_after(5, [&] { cancel_result = simulator.cancel(victim); });
  simulator.run();
  EXPECT_TRUE(cancel_result);
  EXPECT_EQ(fired_victim, 0);
  EXPECT_EQ(simulator.fired(), 1u);
}

TEST(SimAlloc, SameTickEventsFireInScheduleOrder) {
  sim::Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    simulator.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimAlloc, FifoTieBreakSurvivesInterleavedCancels) {
  sim::Simulator simulator;
  std::vector<int> order;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(simulator.schedule_at(100, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 2) {
    ASSERT_TRUE(simulator.cancel(ids[static_cast<std::size_t>(i)]));
  }
  simulator.run();
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
  }
}

TEST(SimAlloc, PendingCountsLiveEventsOnly) {
  sim::Simulator simulator;
  const auto a = simulator.schedule_after(1, [] {});
  simulator.schedule_after(2, [] {});
  simulator.schedule_after(3, [] {});
  EXPECT_EQ(simulator.pending(), 3u);
  ASSERT_TRUE(simulator.cancel(a));
  EXPECT_EQ(simulator.pending(), 2u);  // no tombstones linger
  simulator.run();
  EXPECT_EQ(simulator.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Reference oracle: a naive kernel over std::set<(tick, seq)> with the
// Simulator's contract (clamp to now, FIFO among equal ticks, run(until)
// advancing the clock to the horizon), run in lockstep with the radix queue.

class NaiveKernel {
 public:
  using Id = std::uint64_t;  // schedule sequence; 0 is never issued

  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] Tick next_event_at() const {
    return queue_.empty() ? kNeverTick : queue_.begin()->first;
  }

  Id schedule_at(Tick at, std::function<void()> action) {
    if (at < now_) at = now_;
    const Id id = ++seq_;
    queue_.emplace(at, id);
    actions_.emplace(id, Entry{at, std::move(action)});
    return id;
  }

  bool cancel(Id id) {
    const auto it = actions_.find(id);
    if (it == actions_.end()) return false;
    queue_.erase({it->second.at, id});
    actions_.erase(it);
    return true;
  }

  bool step() {
    if (queue_.empty()) return false;
    fire();
    return true;
  }

  std::size_t run(Tick until, std::size_t max_events) {
    std::size_t count = 0;
    while (count < max_events && !queue_.empty() && queue_.begin()->first <= until) {
      fire();
      ++count;
    }
    if (until != kNeverTick && now_ < until && next_event_at() > until) now_ = until;
    return count;
  }

 private:
  struct Entry {
    Tick at;
    std::function<void()> action;
  };

  void fire() {
    const auto [at, id] = *queue_.begin();
    queue_.erase(queue_.begin());
    std::function<void()> action = std::move(actions_.at(id).action);
    actions_.erase(id);
    now_ = at;
    action();
  }

  Tick now_ = 0;
  Id seq_ = 0;
  std::set<std::pair<Tick, Id>> queue_;
  std::map<Id, Entry> actions_;
};

/// Adapts a sim::Simulator to the oracle's interface.
struct RadixKernel {
  using Id = sim::EventId;
  sim::Simulator sim;

  [[nodiscard]] Tick now() const { return sim.now(); }
  [[nodiscard]] std::size_t pending() const { return sim.pending(); }
  [[nodiscard]] Tick next_event_at() const { return sim.next_event_at(); }
  Id schedule_at(Tick at, sim::InlineAction action) {
    return sim.schedule_at(at, std::move(action));
  }
  bool cancel(Id id) { return sim.cancel(id); }
  bool step() { return sim.step(); }
  std::size_t run(Tick until, std::size_t max_events) { return sim.run(until, max_events); }
};

/// One kernel plus the ids of every event it was ever asked to schedule and
/// the log of what its actions did. Actions are pure functions of their
/// label, so two kernels that agree fire the same actions with the same
/// effects: some schedule a follow-up, some cancel another event.
template <typename Kernel>
struct Lockstep {
  static constexpr std::uint64_t kFollowUp = 1ULL << 40;

  Kernel kernel;
  std::vector<typename Kernel::Id> ids;
  std::vector<std::uint64_t> log;

  void schedule(Tick at, std::uint64_t label) {
    ids.push_back(kernel.schedule_at(at, [this, label] { on_fire(label); }));
  }

  void on_fire(std::uint64_t label) {
    log.push_back(label);
    if (label % 5 == 0 && label < kFollowUp) {
      schedule(saturating_add(kernel.now(), static_cast<Tick>(label % 3)), label + kFollowUp);
    }
    if (label % 7 == 0 && !ids.empty()) {
      log.push_back(kernel.cancel(ids[label % ids.size()]) ? 1 : 0);
    }
  }

  static Tick saturating_add(Tick base, Tick delay) {
    return base > kNeverTick - delay ? kNeverTick : base + delay;
  }
};

/// A delay drawn from the classes the engine produces plus the extremes.
Tick draw_delay(Xoshiro256& rng) {
  switch (rng() % 8) {
    case 0: return 0;
    case 1: return static_cast<Tick>(1 + rng() % 3);  // under 4 ticks
    case 2:
    case 3:  // the control plane: 0.5-16 ms
      return ticks_from_millis(0.5) + static_cast<Tick>(rng() % ticks_from_millis(15.5));
    case 4:
      return ticks_from_seconds(1.0) + static_cast<Tick>(rng() % ticks_from_seconds(60.0));
    case 5: return static_cast<Tick>(rng() % (Tick{1} << 40));
    case 6: return static_cast<Tick>(rng() % 64);
    default: return kNeverTick;
  }
}

TEST(KernelOracle, RadixQueueMatchesANaiveOrderedSetKernel) {
  constexpr int kSeeds = 300;
  constexpr int kOps = 2000;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(static_cast<std::uint64_t>(seed));
    Lockstep<RadixKernel> fast;
    Lockstep<NaiveKernel> slow;
    std::uint64_t label = 0;
    const auto schedule_both = [&](Tick at) {
      ++label;
      fast.schedule(at, label);
      slow.schedule(at, label);
    };
    for (int op = 0; op < kOps; ++op) {
      const Tick now = slow.kernel.now();
      // Until the final drain, nothing fires at kNeverTick: that would pin
      // the clock there for the rest of the sequence.
      const bool only_never = slow.kernel.next_event_at() == kNeverTick;
      std::uint64_t kind = rng() % 16;
      if (kind >= 9 && kind < 11 && only_never) kind = 0;
      if (kind < 9) {
        const Tick delay = draw_delay(rng);
        schedule_both(delay == kNeverTick ? kNeverTick
                                          : Lockstep<NaiveKernel>::saturating_add(now, delay));
      } else if (kind < 11) {
        ASSERT_EQ(fast.kernel.step(), slow.kernel.step());
      } else if (kind < 14) {
        // Pending, fired, cancelled and stale ids alike (slots are reused),
        // plus the invalid id.
        const std::size_t n = slow.ids.size();
        if (n == 0 || rng() % 16 == 0) {
          ASSERT_FALSE(fast.kernel.cancel(sim::EventId{}));
        } else {
          const std::size_t pick = rng() % n;
          ASSERT_EQ(fast.kernel.cancel(fast.ids[pick]), slow.kernel.cancel(slow.ids[pick]));
        }
      } else {
        // run(until), sometimes under an event budget, then schedules
        // between the horizon and the next pending tick: the span a radix
        // queue must not have moved its reference past.
        // A horizon at or near kNeverTick would move the clock there, so
        // only the final drain uses one.
        Tick delay = draw_delay(rng);
        if (delay == kNeverTick) delay = Tick{1} << 40;
        const Tick until = Lockstep<NaiveKernel>::saturating_add(now, delay) - 1;
        const std::size_t budget = rng() % 4 == 0 ? rng() % 5 : SIZE_MAX;
        ASSERT_EQ(fast.kernel.run(until, budget), slow.kernel.run(until, budget));
        const Tick from = slow.kernel.now();
        const Tick next = slow.kernel.next_event_at();
        if (from < next && rng() % 2 == 0) {
          const auto span = static_cast<std::uint64_t>(next - from);
          for (int k = 0; k < 3; ++k) {
            schedule_both(from + static_cast<Tick>(rng() % span));
          }
        }
      }
      ASSERT_EQ(fast.log, slow.log) << "op " << op;
      ASSERT_EQ(fast.kernel.now(), slow.kernel.now()) << "op " << op;
      ASSERT_EQ(fast.kernel.pending(), slow.kernel.pending()) << "op " << op;
      ASSERT_EQ(fast.kernel.next_event_at(), slow.kernel.next_event_at()) << "op " << op;
    }
    // Drain, which fires the kNeverTick events last and leaves the clock
    // there; later schedules clamp to it and still fire in order.
    ASSERT_EQ(fast.kernel.run(kNeverTick, SIZE_MAX), slow.kernel.run(kNeverTick, SIZE_MAX));
    for (int k = 0; k < 8; ++k) schedule_both(static_cast<Tick>(rng() % 1000));
    ASSERT_EQ(fast.kernel.cancel(fast.ids.back()), slow.kernel.cancel(slow.ids.back()));
    ASSERT_EQ(fast.kernel.step(), slow.kernel.step());
    ASSERT_EQ(fast.kernel.run(kNeverTick, SIZE_MAX), slow.kernel.run(kNeverTick, SIZE_MAX));
    ASSERT_EQ(fast.log, slow.log);
    ASSERT_EQ(fast.kernel.now(), kNeverTick);
    ASSERT_EQ(slow.kernel.now(), kNeverTick);
    ASSERT_EQ(fast.kernel.pending(), 0U);
  }
}

// ---------------------------------------------------------------------------
// Complexity guard: counts bucket relinks instead of timing. A standing
// backlog of far-future events (crash, lease and arrival timers) must not
// make the near-future events that fire pay more.

double relinks_per_fire(std::size_t backlog) {
  sim::Simulator simulator;
  Xoshiro256 rng(17);
  for (std::size_t i = 0; i < backlog; ++i) {
    const auto ahead = static_cast<Tick>(rng() % (std::uint64_t{1} << 40));
    simulator.schedule_at(ticks_from_seconds(3600.0) + ahead, [] {});
  }
  // 256 near-future events in flight, each rescheduling itself 0.5-16 ms
  // ahead when it fires: the shape of a broadcast round.
  struct Churn {
    sim::Simulator* simulator;
    Xoshiro256* rng;
    void operator()() const {
      const Tick delay = ticks_from_millis(0.5) +
                         static_cast<Tick>((*rng)() % static_cast<std::uint64_t>(
                                                          ticks_from_millis(15.5)));
      simulator->schedule_after(delay, Churn{*this});
    }
  };
  for (int i = 0; i < 256; ++i) simulator.schedule_after(i, Churn{&simulator, &rng});
  const std::uint64_t moved = simulator.moved();
  const std::uint64_t fired = simulator.fired();
  simulator.run(kNeverTick, 200'000);
  EXPECT_EQ(simulator.pending(), backlog + 256);
  return static_cast<double>(simulator.moved() - moved) /
         static_cast<double>(simulator.fired() - fired);
}

TEST(KernelComplexity, RelinksPerFireStayFlatUnderAStandingBacklog) {
  const double small = relinks_per_fire(1'000);
  const double large = relinks_per_fire(64'000);
  EXPECT_GT(small, 0.0);
  EXPECT_LE(small, static_cast<double>(sim::Simulator::kLevels));
  EXPECT_LE(large, static_cast<double>(sim::Simulator::kLevels));
  EXPECT_LE(large, small * 1.01);
}

// --- A worker that holds no job -------------------------------------------

class IdleWorkerAlloc : public ::testing::Test {
 protected:
  IdleWorkerAlloc() : network_(seeds_), metrics_(1) {
    node_ = network_.register_node("w0", net::LinkConfig{});
    config_.name = "w0";  // short enough for the string's inline buffer
    // Records for every job the tests run, so the metrics' maps and
    // vectors are sized before anything is counted.
    for (workflow::JobId id = 1; id <= 6; ++id) (void)metrics_.job(id);
    simulator_.reserve(64);
  }

  static workflow::Job job(workflow::JobId id) {
    workflow::Job job;
    job.id = id;
    job.process_mb = 8.0;
    return job;
  }

  [[nodiscard]] static std::size_t allocations() { return counting_new::allocations.load(); }

  SeedSequencer seeds_{7};
  sim::Simulator simulator_;
  net::NetworkModel network_;
  metrics::MetricsCollector metrics_;
  net::NodeId node_ = net::kInvalidNode;
  cluster::WorkerConfig config_;
};

TEST_F(IdleWorkerAlloc, AConstructedWorkerAllocatesOnlyItsSlotArray) {
  const std::size_t before = allocations();
  cluster::WorkerNode worker(0, config_, simulator_, network_, node_, metrics_, seeds_);
  EXPECT_EQ(allocations() - before, 1u);

  // A bid on it (backlog, estimate, delay) allocates nothing either.
  const std::size_t before_bid = allocations();
  EXPECT_EQ(worker.backlog_cost_s(), 0.0);
  EXPECT_GT(worker.estimate_bid_s(job(1)), 0.0);
  (void)worker.sample_bid_delay();
  EXPECT_EQ(allocations(), before_bid);
  EXPECT_TRUE(worker.idle());
}

TEST_F(IdleWorkerAlloc, TheFirstEnqueueAllocatesTheQueues) {
  cluster::WorkerNode worker(0, config_, simulator_, network_, node_, metrics_, seeds_);

  // Job 1 passes through both queues into the free slot.
  const std::size_t before_first = allocations();
  worker.enqueue(job(1));
  const std::size_t first = allocations() - before_first;
  simulator_.run();
  EXPECT_TRUE(worker.idle());

  // Job 2 meets queues that already exist; only its execution slot is new.
  const std::size_t before_again = allocations();
  worker.enqueue(job(2));
  const std::size_t again = allocations() - before_again;
  EXPECT_EQ(again, 1u);
  // Both queues were created on the first enqueue: a map and a node each.
  EXPECT_EQ(first - again, 4u);

  // A job queued behind the busy slot allocates nothing.
  const std::size_t before_queued = allocations();
  worker.enqueue(job(3));
  EXPECT_EQ(allocations(), before_queued);
  EXPECT_EQ(worker.queue_length(), 1u);
  simulator_.run();
  EXPECT_EQ(metrics_.worker(0).jobs_completed, 3u);
}

TEST_F(IdleWorkerAlloc, ACrashedAndRevivedWorkerQueuesAndRunsJobs) {
  cluster::WorkerNode worker(0, config_, simulator_, network_, node_, metrics_, seeds_);
  std::vector<workflow::JobId> completed;
  worker.on_complete = [&completed](const workflow::Job& done, cluster::WorkerIndex) {
    completed.push_back(done.id);
  };
  worker.enqueue(job(1));
  worker.enqueue(job(2));
  ASSERT_EQ(worker.queue_length(), 1u);

  const std::vector<workflow::Job> lost = worker.set_failed(true);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].id, 1u);
  EXPECT_EQ(lost[1].id, 2u);
  EXPECT_EQ(worker.queue_length(), 0u);
  EXPECT_EQ(worker.backlog_cost_s(), 0.0);
  EXPECT_FALSE(worker.has_job(2));

  EXPECT_TRUE(worker.set_failed(false).empty());
  worker.enqueue(job(4));
  worker.enqueue(job(5));
  worker.enqueue(job(6));
  EXPECT_EQ(worker.queue_length(), 2u);
  EXPECT_TRUE(worker.has_job(6));
  EXPECT_GT(worker.backlog_cost_s(), 0.0);
  simulator_.run();
  EXPECT_EQ(completed, (std::vector<workflow::JobId>{4, 5, 6}));
  EXPECT_TRUE(worker.idle());
}

}  // namespace
