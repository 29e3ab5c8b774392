#pragma once
// Structured simulation tracing.
//
// A Tracer is an append buffer of typed trace events — spans, instants and
// counter samples — stamped with simulated ticks and labelled through an
// interned name table. Components never store strings per event: a name is
// interned once (cold path) and every event carries a 16-bit id.
//
// The simulation is single-threaded, so the buffer needs no synchronisation
// ("lock-free by construction"); experiment-level parallelism attaches one
// Tracer per Simulator.
//
// Cost model, mirroring DLAJA_LOG:
//   * compile-time: building with -DDLAJA_TRACE=OFF defines
//     DLAJA_TRACE_DISABLED and DLAJA_TRACE_ACTIVE() folds to `false`, so
//     every instrumentation block is dead code the optimizer removes;
//   * runtime: with tracing compiled in but no tracer attached (or the
//     tracer disabled), each hook costs one pointer load and a
//     never-taken branch.
//
// The buffer is capped: once `capacity` events are recorded, further events
// are counted in dropped() instead of growing the buffer without bound —
// long runs degrade gracefully instead of eating the host's memory.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/units.hpp"

namespace dlaja::obs {

/// Emitting subsystem. Doubles as the Chrome-trace "process" id so Perfetto
/// groups tracks by component.
enum class Component : std::uint8_t { kSim, kMsg, kNet, kSched, kWorker, kCore, kFault };
inline constexpr std::size_t kComponentCount = 7;

/// Stable lowercase name ("sim", "msg", ...) used as the Chrome-trace
/// category and in profile tables.
[[nodiscard]] const char* component_name(Component comp) noexcept;

/// Inverse of component_name(); unknown names map to kCore.
[[nodiscard]] Component component_from_name(std::string_view name) noexcept;

enum class EventType : std::uint8_t {
  kSpan,     ///< an interval [ts, ts+dur] on a track
  kInstant,  ///< a point event at ts
  kCounter,  ///< a sampled value at ts
};

/// One recorded event. 40 bytes; the name is an id into Tracer::names().
/// `track` separates concurrent timelines within a component (a worker
/// index, a node id) and becomes the Chrome-trace thread id.
struct TraceEvent {
  Tick ts = 0;
  Tick dur = 0;        ///< spans only; 0 otherwise
  double value = 0.0;  ///< counters only
  std::uint64_t arg = 0;  ///< correlation id (job id, flow seq, event seq)
  std::uint32_t track = 0;
  std::uint16_t name = 0;
  EventType type = EventType::kInstant;
  Component comp = Component::kSim;
};

class Tracer {
 public:
  /// `capacity` caps the number of recorded events (drops beyond it).
  explicit Tracer(std::size_t capacity = 1u << 20) : capacity_(capacity) {
    names_.push_back("?");  // id 0 = "unnamed", so a zero name is printable
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runtime switch. Components must check enabled() (via
  /// DLAJA_TRACE_ACTIVE) before paying any per-event cost.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Returns the id for `name`, creating it on first use. Stable for the
  /// Tracer's lifetime; call on cold paths and cache the id.
  std::uint16_t intern(std::string_view name);

  /// Name for an interned id ("?" for unknown ids).
  [[nodiscard]] const std::string& name(std::uint16_t id) const noexcept {
    return names_[id < names_.size() ? id : 0];
  }

  /// Records a completed interval [start, end] (clamped to start).
  void span(Component comp, std::uint16_t name, std::uint32_t track, Tick start,
            Tick end, std::uint64_t arg = 0) {
    TraceEvent event;
    event.ts = start;
    event.dur = end > start ? end - start : 0;
    event.arg = arg;
    event.track = track;
    event.name = name;
    event.type = EventType::kSpan;
    event.comp = comp;
    push(event);
  }

  /// Records a point event.
  void instant(Component comp, std::uint16_t name, std::uint32_t track, Tick at,
               std::uint64_t arg = 0) {
    TraceEvent event;
    event.ts = at;
    event.arg = arg;
    event.track = track;
    event.name = name;
    event.type = EventType::kInstant;
    event.comp = comp;
    push(event);
  }

  /// Records a counter sample.
  void counter(Component comp, std::uint16_t name, std::uint32_t track, Tick at,
               double value) {
    TraceEvent event;
    event.ts = at;
    event.value = value;
    event.track = track;
    event.name = name;
    event.type = EventType::kCounter;
    event.comp = comp;
    push(event);
  }

  /// Appends a pre-built event verbatim (used by the trace importer).
  /// Subject to the same capacity cap as the typed recorders.
  void append(const TraceEvent& event) { push(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }

  /// Events rejected because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Counts `count` more dropped events: an imported trace carries the
  /// drops of the tracer that recorded it.
  void add_dropped(std::uint64_t count) noexcept { dropped_ += count; }

  /// Discards recorded events (the name table survives, so cached ids from
  /// a previous run stay valid).
  void clear() noexcept {
    events_.clear();
    dropped_ = 0;
  }

 private:
  void push(const TraceEvent& event) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(event);
  }

  bool enabled_ = false;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> name_ids_;
};

}  // namespace dlaja::obs

// Instrumentation guard. Every trace block must be gated:
//
//   if (DLAJA_TRACE_ACTIVE(tracer)) tracer->span(...);
//
// With DLAJA_TRACE_DISABLED (CMake -DDLAJA_TRACE=OFF) the condition is a
// constant false and the whole block compiles away.
#ifdef DLAJA_TRACE_DISABLED
#define DLAJA_TRACE_ACTIVE(tracer) (false && (tracer) != nullptr)
#else
#define DLAJA_TRACE_ACTIVE(tracer) ((tracer) != nullptr && (tracer)->enabled())
#endif
