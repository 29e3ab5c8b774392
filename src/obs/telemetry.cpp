#include "obs/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace dlaja::obs {

namespace {

/// Shortest round-trip decimal form of a double (matches the JSON writer's
/// conventions: finite values only reach this layer).
void append_double(std::string& out, double value) {
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out.append(buffer, static_cast<std::size_t>(n));
}

}  // namespace

void ProbeRegistry::add_gauge(std::string name, std::uint32_t tag, Gauge fn) {
  if (name.empty() || !fn) {
    throw std::invalid_argument("ProbeRegistry::add_gauge: need a name and a callback");
  }
  if (tag != 0) throw std::invalid_argument("ProbeRegistry::add_gauge: tag must be 0");
  gauges_.push_back(GaugeEntry{std::move(name), std::move(fn)});
}

void ProbeRegistry::add_invariant(std::string name, std::uint32_t tag, Check fn) {
  if (name.empty() || !fn) {
    throw std::invalid_argument("ProbeRegistry::add_invariant: need a name and a callback");
  }
  if (tag != 0) throw std::invalid_argument("ProbeRegistry::add_invariant: tag must be 0");
  invariants_.push_back(CheckEntry{std::move(name), std::move(fn)});
}

void TelemetrySampler::bind(const ProbeRegistry& registry, const TelemetryConfig& config) {
  if (config.interval <= 0) {
    throw std::invalid_argument("TelemetrySampler::bind: interval must be > 0");
  }
  if (config.capacity < 2) {
    throw std::invalid_argument("TelemetrySampler::bind: capacity must be >= 2");
  }
  bound_ = true;
  config_ = config;
  next_due_ = config.interval;
  stride_ = 1;
  for (const ProbeRegistry::GaugeEntry& gauge : registry.gauges_) {
    // Several gauges may share a series name; they sum into one column.
    const auto it = std::find(names_.begin(), names_.end(), gauge.name);
    std::size_t column = 0;
    if (it == names_.end()) {
      column = names_.size();
      names_.push_back(gauge.name);
    } else {
      column = static_cast<std::size_t>(it - names_.begin());
    }
    gauges_.push_back(BoundGauge{gauge.fn, column});
  }
  scratch_row_.resize(names_.size());
  columns_stale_ = true;
  if (config.watchdog) {
    for (const ProbeRegistry::CheckEntry& check : registry.invariants_) {
      checks_.push_back(&check);
    }
  }
}

void TelemetrySampler::sample(Tick tick) {
  assert(bound_ && tick == next_due_);
  next_due_ += config_.interval;
  std::fill(scratch_row_.begin(), scratch_row_.end(), 0.0);
  for (const BoundGauge& gauge : gauges_) {
    scratch_row_[gauge.column] += gauge.fn();
  }
  // Invariants run at every sample at full cadence — retention only thins
  // what is *stored*, never what is *checked*. After the first violation the
  // sampler records nothing further but keeps sampling.
  if (!violation_) {
    for (const ProbeRegistry::CheckEntry* check : checks_) {
      std::string message = check->fn();
      if (!message.empty()) {
        violation_ = InvariantViolation{tick, check->name, std::move(message)};
        break;
      }
    }
  }
  // Retention keeps ticks on the (stride * interval) grid; a tick off the
  // current grid was doomed by an earlier compaction.
  if ((tick / config_.interval) % static_cast<Tick>(stride_) != 0) return;
  ticks_.push_back(tick);
  rows_.insert(rows_.end(), scratch_row_.begin(), scratch_row_.end());
  columns_stale_ = true;
  if (ticks_.size() >= config_.capacity) compact();
}

void TelemetrySampler::finalize(Tick target) {
  if (!bound_) return;
  // Pad: the run went quiescent before the canonical end; gauges read the
  // frozen final state.
  while (next_due_ <= target) sample(next_due_);
}

void TelemetrySampler::compact() {
  // Stride-doubling ring retention: drop every sample off the doubled grid.
  stride_ *= 2;
  const std::size_t width = names_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ticks_.size(); ++i) {
    if ((ticks_[i] / config_.interval) % static_cast<Tick>(stride_) != 0) continue;
    ticks_[kept] = ticks_[i];
    std::copy_n(rows_.begin() + static_cast<std::ptrdiff_t>(i * width), width,
                rows_.begin() + static_cast<std::ptrdiff_t>(kept * width));
    ++kept;
  }
  ticks_.resize(kept);
  rows_.resize(kept * width);
}

void TelemetrySampler::rebuild_columns() const {
  const std::size_t width = names_.size();
  columns_.assign(width, std::vector<double>(ticks_.size()));
  for (std::size_t i = 0; i < ticks_.size(); ++i) {
    for (std::size_t s = 0; s < width; ++s) columns_[s][i] = rows_[i * width + s];
  }
  columns_stale_ = false;
}

void TelemetrySampler::dump_tail(std::ostream& out, std::size_t rows) const {
  out << "tick,time_s";
  for (const std::string& name : names_) out << ',' << name;
  out << '\n';
  std::string line;
  const auto emit = [&](Tick tick, const auto& value_at) {
    line.clear();
    line += std::to_string(tick);
    line += ',';
    append_double(line, seconds_from_ticks(tick));
    for (std::size_t s = 0; s < names_.size(); ++s) {
      line += ',';
      append_double(line, value_at(s));
    }
    line += '\n';
    out << line;
  };
  const std::size_t start = ticks_.size() > rows ? ticks_.size() - rows : 0;
  for (std::size_t i = start; i < ticks_.size(); ++i) {
    emit(ticks_[i], [&](std::size_t s) { return rows_[i * names_.size() + s]; });
  }
}

TelemetryTable TelemetrySampler::table() const {
  TelemetryTable table;
  if (!bound_) return table;
  // Sorted columns: the layout does not depend on registration order, so
  // CSVs diff cleanly across runs that register probes differently.
  table.names = names_;
  std::sort(table.names.begin(), table.names.end());
  table.interval = config_.interval;
  table.ticks = ticks_;
  table.values.assign(table.names.size(), std::vector<double>(ticks_.size()));
  const std::size_t width = names_.size();
  for (std::size_t s = 0; s < width; ++s) {
    const auto it = std::find(table.names.begin(), table.names.end(), names_[s]);
    auto& column = table.values[static_cast<std::size_t>(it - table.names.begin())];
    for (std::size_t i = 0; i < column.size(); ++i) column[i] = rows_[i * width + s];
  }
  return table;
}

void write_telemetry_csv(std::ostream& out, const TelemetryTable& table) {
  std::string line = "tick,time_s";
  for (const std::string& name : table.names) {
    line += ',';
    line += name;
  }
  line += '\n';
  out << line;
  for (std::size_t i = 0; i < table.ticks.size(); ++i) {
    line.clear();
    line += std::to_string(table.ticks[i]);
    line += ',';
    append_double(line, seconds_from_ticks(table.ticks[i]));
    for (const auto& series : table.values) {
      line += ',';
      append_double(line, series[i]);
    }
    line += '\n';
    out << line;
  }
}

void write_telemetry_json(std::ostream& out, const TelemetryTable& table) {
  std::string text = "{\n  \"interval_ticks\": ";
  text += std::to_string(table.interval);
  text += ",\n  \"ticks\": [";
  for (std::size_t i = 0; i < table.ticks.size(); ++i) {
    if (i != 0) text += ',';
    text += std::to_string(table.ticks[i]);
  }
  text += "],\n  \"series\": {";
  for (std::size_t s = 0; s < table.names.size(); ++s) {
    if (s != 0) text += ',';
    text += "\n    \"";
    text += table.names[s];  // probe names are plain identifiers; no escaping
    text += "\": [";
    for (std::size_t i = 0; i < table.values[s].size(); ++i) {
      if (i != 0) text += ',';
      append_double(text, table.values[s][i]);
    }
    text += ']';
  }
  text += "\n  }\n}\n";
  out << text;
}

}  // namespace dlaja::obs
