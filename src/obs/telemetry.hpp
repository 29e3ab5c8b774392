#pragma once
// Deterministic in-run telemetry: gauge sampling and an invariant watchdog.
//
// Components register named read-only *gauges* (a double-valued callback)
// and *invariants* (a callback returning "" when healthy, or a diagnostic
// message) in a ProbeRegistry. A TelemetrySampler reads every probe at a
// fixed simulated-tick cadence and stores the values in series with bounded
// "ring" retention: when a series reaches its capacity, every second
// retained sample is dropped and the retention stride doubles, so
// million-job streaming runs keep O(capacity) memory while the retained
// ticks stay on a regular (stride x interval) grid.
//
// Determinism contract: sampling fires no simulator events, draws no RNG,
// and mutates nothing outside the sampler itself — a run with telemetry on
// is bit-identical to the same run with it off.
//
// The canonical sampled tick set for a run is
//
//   { interval, 2*interval, ..., min(floor_grid(horizon), ceil_grid(t_last)) }
//
// where t_last is the tick of the last event that actually fired. The
// engine's run loop samples each grid tick it passes, and finalize() pads
// the series to the canonical end.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace dlaja::obs {

/// Telemetry knobs, carried inside EngineConfig. interval == 0 disables the
/// subsystem entirely: no probes are registered, no sampler is constructed,
/// and the engine's run loop is byte-for-byte the historical one.
struct TelemetryConfig {
  /// Sampling cadence in simulated ticks (0 = telemetry off).
  Tick interval = 0;

  /// Retained samples per series. When exceeded, retention compacts to a
  /// doubled stride (see file comment). Must be >= 2.
  std::size_t capacity = 4096;

  /// Run registered invariants at every sample and fail fast on violation.
  bool watchdog = true;
};

/// Where components register probes. Several gauges may share one series
/// name — their values are summed into that series.
class ProbeRegistry {
 public:
  using Gauge = std::function<double()>;
  /// Returns "" while healthy, else a human-readable diagnostic.
  using Check = std::function<std::string()>;

  /// `tag` must be 0 (std::invalid_argument otherwise). The parameter is
  /// kept only because perfbench (perfbench/cpp/layer_probe.cpp) passes it.
  void add_gauge(std::string name, std::uint32_t tag, Gauge fn);
  void add_invariant(std::string name, std::uint32_t tag, Check fn);

  [[nodiscard]] std::size_t gauge_count() const noexcept { return gauges_.size(); }
  [[nodiscard]] std::size_t invariant_count() const noexcept { return invariants_.size(); }

 private:
  friend class TelemetrySampler;
  struct GaugeEntry {
    std::string name;
    Gauge fn;
  };
  struct CheckEntry {
    std::string name;
    Check fn;
  };
  std::vector<GaugeEntry> gauges_;
  std::vector<CheckEntry> invariants_;
};

/// First invariant failure seen by a sampler (the watchdog's verdict).
struct InvariantViolation {
  Tick tick = kNeverTick;
  std::string probe;
  std::string message;
};

/// The export-ready result of a run: one row per retained tick, one column
/// per series (sorted by name, so the layout is independent of probe
/// registration order).
struct TelemetryTable {
  Tick interval = 0;
  std::vector<Tick> ticks;
  std::vector<std::string> names;
  std::vector<std::vector<double>> values;  ///< [series][row], aligned with ticks

  [[nodiscard]] bool empty() const noexcept { return ticks.empty() || names.empty(); }
};

/// Samples the registry's probes. Driven by the engine: sample() at every
/// grid tick the simulator passes, finalize() after the run.
class TelemetrySampler {
 public:
  TelemetrySampler() = default;

  /// Binds the registry's probes. Called once, after all registration and
  /// before the run.
  void bind(const ProbeRegistry& registry, const TelemetryConfig& config);

  /// Next grid tick to sample, or kNeverTick when unbound. The engine's
  /// slicing loop runs the simulator to exactly this tick before calling
  /// sample().
  [[nodiscard]] Tick next_due() const noexcept {
    return bound_ ? next_due_ : kNeverTick;
  }

  /// Reads every bound gauge, (watchdog on) runs every bound invariant, and
  /// stores the row (applying ring compaction). `tick` must equal
  /// next_due().
  void sample(Tick tick);

  /// Ends the run at the canonical target tick: samples any missing grid
  /// ticks up to `target` (the simulation is quiescent, so gauges read final
  /// state).
  void finalize(Tick target);

  /// First invariant failure, if any. The sampler keeps sampling after a
  /// violation; the engine checks this after every sample and fails the
  /// run.
  [[nodiscard]] const std::optional<InvariantViolation>& violation() const noexcept {
    return violation_;
  }

  [[nodiscard]] const std::vector<Tick>& ticks() const noexcept { return ticks_; }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }
  /// Columnar view of the retained samples ([series][row], aligned with
  /// ticks()). Retention stores rows contiguously (row-major) so the
  /// per-sample commit touches two cache lines instead of one per series;
  /// this view is materialized lazily, off the sampling hot path.
  [[nodiscard]] const std::vector<std::vector<double>>& values() const {
    if (columns_stale_) rebuild_columns();
    return columns_;
  }
  [[nodiscard]] std::size_t series_count() const noexcept { return names_.size(); }
  [[nodiscard]] bool bound() const noexcept { return bound_; }
  [[nodiscard]] Tick interval() const noexcept { return config_.interval; }

  /// The retained samples as an export-ready table, columns sorted by name.
  /// Reads the row-major storage directly, never the columnar view.
  [[nodiscard]] TelemetryTable table() const;

  /// Writes the last `rows` retained samples as a small table — the
  /// watchdog's "series dump" on a violation.
  void dump_tail(std::ostream& out, std::size_t rows = 16) const;

 private:
  void compact();
  void rebuild_columns() const;

  bool bound_ = false;
  TelemetryConfig config_;
  Tick next_due_ = kNeverTick;
  std::uint64_t stride_ = 1;  ///< retained ticks sit on (stride * interval)

  /// Bound gauges, copied out of the registry into one dense array: the
  /// per-sample sweep is the hot path and walks this sequentially instead
  /// of chasing registry entries (whose names it never needs).
  struct BoundGauge {
    ProbeRegistry::Gauge fn;
    std::size_t column = 0;  ///< series this gauge sums into
  };
  std::vector<BoundGauge> gauges_;
  std::vector<const ProbeRegistry::CheckEntry*> checks_;

  std::vector<std::string> names_;
  std::vector<Tick> ticks_;
  /// Retained samples, row-major (ticks_.size() x names_.size()).
  std::vector<double> rows_;
  /// Lazily materialized columnar view of rows_ (see values()).
  mutable std::vector<std::vector<double>> columns_;
  mutable bool columns_stale_ = false;

  std::vector<double> scratch_row_;

  std::optional<InvariantViolation> violation_;
};

/// Writes `tick,time_s,<series...>` rows. Values use max round-trip
/// precision so re-parsing loses nothing.
void write_telemetry_csv(std::ostream& out, const TelemetryTable& table);

/// Writes {"interval_ticks": .., "ticks": [..], "series": {name: [..]}}.
void write_telemetry_json(std::ostream& out, const TelemetryTable& table);

}  // namespace dlaja::obs
