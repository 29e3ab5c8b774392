#pragma once
// Deterministic discrete-event simulation kernel.
//
// All components of the simulated cluster (network transfers, broker message
// deliveries, job processing, bidding windows) are expressed as events on a
// single queue ordered by timestamp; events that share a timestamp fire in
// the order they were scheduled. That FIFO tie-break makes runs
// bit-reproducible regardless of how many events share a timestamp.
//
// The event core is allocation-free in steady state: callbacks live in
// fixed-size InlineAction storage (no std::function heap traffic), and event
// nodes sit in a slab recycled through a free list. The queue is a monotone
// radix-bucket queue: an event is filed under the highest 6-bit digit in
// which its tick differs from a reference tick (the last fired tick, or the
// start of the bucket being refiled), one 64-bit occupancy mask per level
// finds the earliest bucket, and each bucket is an intrusive FIFO list
// threaded through the slab. Schedule and cancel are O(1) whatever the
// number of pending events, and an event is relinked at most once per level
// before it fires. EventIds carry a generation tag so a handle to a fired or
// cancelled event can never accidentally cancel the slot's next tenant.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "sim/inline_action.hpp"
#include "util/units.hpp"

namespace dlaja::obs {
class Tracer;
}

namespace dlaja::sim {

namespace detail {

/// Minimal allocator forcing 64-byte (cache-line) alignment, so each 64-byte
/// Action in the simulator's slab occupies exactly one line.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}  // NOLINT
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
  friend bool operator==(CacheAlignedAllocator, CacheAlignedAllocator) { return true; }
};

}  // namespace detail

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes (slot, generation) — stale handles fail cancel() safely.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// The simulation engine. Not thread-safe: one Simulator per run, runs fan
/// out across threads at the experiment level instead.
class Simulator {
 public:
  using Action = InlineAction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Schedules `action` to fire at absolute time `at` (clamped to now()).
  EventId schedule_at(Tick at, Action action);

  /// Schedules `action` to fire `delay` ticks from now (negative -> now).
  EventId schedule_after(Tick delay, Action action);

  /// Cancels a pending event. Returns false if it already fired, was already
  /// cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Fires the earliest pending event; returns false if the queue is empty
  /// or the engine was stopped.
  bool step();

  /// Runs until the queue drains, `until` is reached (events at t > until
  /// stay pending and now() advances to `until`), stop() is called, or
  /// `max_events` events have fired. Returns the number of events fired.
  std::size_t run(Tick until = kNeverTick, std::size_t max_events = SIZE_MAX);

  /// Requests that run()/step() stop before firing further events.
  void stop() noexcept { stopped_ = true; }

  /// True once stop() was called (cleared by resume()).
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Clears the stop flag so that run() may continue.
  void resume() noexcept { stopped_ = false; }

  /// Pre-sizes the node slab for `events` simultaneously pending events, so
  /// traces with known event counts schedule without growth reallocations.
  void reserve(std::size_t events);

  /// Number of pending (non-cancelled) events. Cancelled events leave no
  /// trace, so this counts live events only.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Timestamp of the earliest pending event, or kNeverTick when the queue
  /// is empty. The engine's telemetry loop uses this to stop sampling once
  /// nothing is left to fire. O(1) when the earliest event sits in the
  /// lowest level, else a walk of one bucket.
  [[nodiscard]] Tick next_event_at() const noexcept;

  /// Total events fired since construction.
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

  /// Timestamp of the most recently fired event (0 if none fired yet).
  /// Unlike now(), this never advances past the last event: run(until)
  /// moves now() to `until` even when nothing fires there. The telemetry
  /// layer uses it to place the canonical end of a run's sampling grid.
  [[nodiscard]] Tick last_fired_at() const noexcept { return last_fired_; }

  /// Total schedule_at/schedule_after calls since construction.
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return scheduled_; }

  /// Total successful cancel() calls since construction.
  [[nodiscard]] std::uint64_t cancelled() const noexcept { return cancelled_; }

  /// Total bucket relinks since construction: events moved to a lower level
  /// when their bucket came due. The queue's work counter — each event moves
  /// at most kLevels - 1 times, so relinks per fired event stay bounded by
  /// the level count however many events are pending.
  [[nodiscard]] std::uint64_t moved() const noexcept { return moved_; }

  /// Radix levels: 11 six-bit digits cover every non-negative Tick.
  static constexpr std::size_t kLevels = 11;

  /// Attaches (or detaches, with nullptr) a tracer. The simulator emits a
  /// zero-duration "dispatch" span per fired event, "cancel" instants, and
  /// periodic "pending" queue-occupancy samples — and every component that
  /// holds a Simulator reaches the shared tracer through tracer(). The
  /// tracer must outlive the simulator (or be detached first); emission
  /// additionally requires tracer()->enabled().
  void set_tracer(obs::Tracer* tracer);

  /// The attached tracer, or nullptr. Components gate their instrumentation
  /// on DLAJA_TRACE_ACTIVE(sim.tracer()).
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// "[t=<seconds>] " prefix stamping log lines with simulated time, so DLAJA_LOG
  /// output correlates with trace timestamps.
  [[nodiscard]] std::string log_prefix() const;

 private:
  static constexpr unsigned kDigitBits = 6;
  static constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;  // per level
  /// "No slot": the free list's terminator and front()'s "nothing due".
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Per-slot queue state. A pending slot sits on the circular FIFO list of
  /// bucket_of(at): `prev` of the bucket's head is its tail. A free slot's
  /// `next` is the free-list link.
  struct Node {
    Tick at = 0;
    std::uint32_t next = kNone;
    std::uint32_t prev = kNone;
    std::uint32_t gen = 0;  ///< bumped on release; tags EventIds
    std::uint32_t seq = 0;  ///< schedule order (mod 2^32): the trace's dispatch arg
  };

  /// The bucket (level * kBuckets + digit) that holds an event at `at`:
  /// level is the highest digit in which `at` differs from base_ (0 when
  /// equal), digit is that digit of `at`. A pure function of (at, base_),
  /// which every pending event satisfies at all times.
  [[nodiscard]] std::size_t bucket_of(Tick at) const noexcept {
    const auto diff = static_cast<std::uint64_t>(at ^ base_);
    const auto level = static_cast<unsigned>(std::bit_width(diff | 1U) - 1) / kDigitBits;
    return level * kBuckets +
           ((static_cast<std::uint64_t>(at) >> (level * kDigitBits)) & (kBuckets - 1));
  }

  /// Appends `slot` to the tail of `bucket`.
  void link(std::uint32_t slot, std::size_t bucket) noexcept;
  /// Removes `slot` from `bucket` (any position).
  void unlink(std::uint32_t slot, std::size_t bucket) noexcept;
  /// Precondition: pending_ > 0. Returns the level-0 bucket whose head is
  /// the earliest pending event, or kNone when every pending event lies past
  /// `limit`. While the earliest bucket sits on a higher level and its span
  /// starts at or before `limit`, refiles it against base_ = that start, so
  /// base_ never passes a run(until) horizon that now() stops at.
  std::uint32_t front(Tick limit) noexcept;
  /// Fires the head of level-0 `bucket`.
  void fire(std::uint32_t bucket);
  /// Returns `slot`'s node to the free list and invalidates outstanding ids.
  void release(std::uint32_t slot) noexcept;

  Tick now_ = 0;
  Tick last_fired_ = 0;
  /// Reference tick of the radix levels: the last fired tick, or the start
  /// of the last refiled bucket. Invariant: base_ <= now() and base_ <=
  /// every pending tick; it only grows.
  Tick base_ = 0;
  bool stopped_ = false;
  std::uint32_t free_head_ = kNone;
  std::size_t pending_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t moved_ = 0;
  // Tracing. The pointer is nullptr in untraced runs, so the only cost on
  // the fire path is one load + never-taken branch (and nothing at all when
  // DLAJA_TRACE_DISABLED compiles the blocks away).
  obs::Tracer* tracer_ = nullptr;
  std::uint16_t trace_dispatch_ = 0;  ///< interned "dispatch"
  std::uint16_t trace_cancel_ = 0;    ///< interned "cancel"
  std::uint16_t trace_pending_ = 0;   ///< interned "pending"
  /// Bit L set iff level L holds an event.
  std::uint32_t levels_ = 0;
  /// Bit d of occupied_[L] set iff bucket (L, d) holds an event.
  std::array<std::uint64_t, kLevels> occupied_{};
  /// Head slot of each bucket. Meaningful only where occupied_ says the
  /// bucket holds an event, so construction leaves it unfilled.
  std::array<std::uint32_t, kLevels * kBuckets> head_;
  // The slot slab: actions and queue state indexed by slot (the slot in an
  // EventId). The action slab is line-aligned so each 64-byte Action
  // occupies exactly one cache line instead of straddling two.
  std::vector<Action, detail::CacheAlignedAllocator<Action>> actions_;
  std::vector<Node> nodes_;
};

}  // namespace dlaja::sim
