#pragma once
// Deterministic discrete-event simulation kernel.
//
// All components of the simulated cluster (network transfers, broker message
// deliveries, job processing, bidding windows) are expressed as events on a
// single queue ordered by (timestamp, insertion sequence). The sequence
// tie-break makes runs bit-reproducible regardless of how many events share
// a timestamp.
//
// The event core is allocation-free in steady state: callbacks live in
// fixed-size InlineAction storage (no std::function heap traffic), and event
// nodes sit in a slab recycled through a free list. An intrusive 4-ary
// min-heap indexed by node keeps cancel() at true O(log n) — no tombstones
// linger in the queue and the fire path does no hash lookups. EventIds carry
// a generation tag so a handle to a fired or cancelled event can never
// accidentally cancel the slot's next tenant.

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

/// Minimal allocator forcing 64-byte (cache-line) alignment, so the heap's
/// 4-entry child groups each occupy exactly one line (see Simulator::kRoot).
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

  /// Pre-sizes the node slab and heap for `events` simultaneously pending
  /// events, so traces with known event counts schedule without growth
  /// reallocations.
  void reserve(std::size_t events);

  /// Number of pending (non-cancelled) events. Cancelled events leave no
  /// trace, so this counts live events only.
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() <= kRoot ? 0 : heap_.size() - kRoot;
  }

  /// Timestamp of the earliest pending event, or kNeverTick when the queue
  /// is empty. The engine's telemetry loop uses this to stop sampling once
  /// nothing is left to fire.
  [[nodiscard]] Tick next_event_at() const noexcept {
    return heap_.size() <= kRoot ? kNeverTick : heap_[kRoot].at;
  }

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

  /// Attaches (or detaches, with nullptr) a tracer. The simulator emits a
  /// zero-duration "dispatch" span per fired event, "cancel" instants, and
  /// periodic "pending" heap-occupancy samples — and every component that
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
  /// The root lives at physical index 3 (indices 0-2 are padding): children
  /// of p are [4p-8, 4p-5] and its parent is (p>>2)+2, which lands every
  /// 4-entry child group on one 64-byte-aligned cache line (entries are 16
  /// bytes and the buffer is line-aligned), so a sift level never straddles
  /// two lines.
  static constexpr std::size_t kRoot = 3;
  /// Terminator for the free list threaded through pos_.
  static constexpr std::uint32_t kFreeEnd = UINT32_MAX;

  /// Heap entries carry the full ordering key so that sift comparisons walk
  /// contiguous memory and never chase into the node slab. 16 bytes — four
  /// entries per cache line.
  struct HeapEntry {
    Tick at;
    std::uint32_t seq;  // tie-break: FIFO among same-tick events (mod 2^32)
    std::uint32_t slot;
  };

  /// Strict (at, seq) order. The sequence tie-break compares modulo 2^32:
  /// correct as long as same-tick events simultaneously in the heap span
  /// fewer than 2^31 schedule calls, which vastly exceeds any feasible
  /// pending-event count (slots are 32-bit and nodes are ~80 bytes).
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  void sift_up(std::size_t pos) noexcept;
  /// Detaches the heap entry at physical index `pos`, restoring the heap
  /// property (bottom-up: walk the min-child hole to a leaf, drop the
  /// displaced last entry there, sift it back up — cheaper than a full
  /// sift-down because the last entry almost always belongs near the leaves).
  void heap_remove(std::size_t pos) noexcept;
  void pop_root() noexcept;
  /// Returns `slot`'s node to the free list and invalidates outstanding ids.
  void release(std::uint32_t slot) noexcept;
  /// Fires the root event (precondition: heap non-empty).
  void fire_root();

  Tick now_ = 0;
  Tick last_fired_ = 0;
  bool stopped_ = false;
  std::uint32_t next_seq_ = 1;
  std::uint32_t free_head_ = kFreeEnd;
  std::uint64_t fired_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  // Tracing. The pointer is nullptr in untraced runs, so the only cost on
  // the fire path is one load + never-taken branch (and nothing at all when
  // DLAJA_TRACE_DISABLED compiles the blocks away).
  obs::Tracer* tracer_ = nullptr;
  std::uint16_t trace_dispatch_ = 0;  ///< interned "dispatch"
  std::uint16_t trace_cancel_ = 0;    ///< interned "cancel"
  std::uint16_t trace_pending_ = 0;   ///< interned "pending"
  // Node slab as parallel arrays (index = slot in EventId): sift operations
  // update pos_ at 4-byte stride instead of scattering writes across a
  // wide node struct, and gen_ is only touched on release/cancel. A free
  // slot's pos_ entry doubles as its free-list link — safe because cancel()
  // validates the generation tag before ever reading pos_.
  // The slab is line-aligned so each 64-byte Action occupies exactly one
  // cache line instead of straddling two.
  std::vector<Action, detail::CacheAlignedAllocator<Action>> actions_;
  std::vector<std::uint32_t> pos_;  // physical heap index / free-list link
  std::vector<std::uint32_t> gen_;  // bumped on release; tags EventIds
  std::vector<HeapEntry, detail::CacheAlignedAllocator<HeapEntry>> heap_;
};

}  // namespace dlaja::sim
