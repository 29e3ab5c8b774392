#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>

#include "util/csv.hpp"

namespace dlaja::obs {

namespace {

/// Escapes a name for embedding in a JSON string literal. Names are interned
/// identifiers (topic names, span labels), so this only needs the characters
/// that would break the literal.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest double representation that parses back exactly.
std::string json_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

const char* type_name(EventType type) {
  switch (type) {
    case EventType::kSpan: return "span";
    case EventType::kInstant: return "instant";
    case EventType::kCounter: return "counter";
  }
  return "?";
}

/// Finds `"key":` in `line` and parses the following signed integer.
bool extract_int(const std::string& line, const char* key, std::int64_t& out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  out = std::strtoll(line.c_str() + at + std::char_traits<char>::length(key), nullptr, 10);
  return true;
}

bool extract_double(const std::string& line, const char* key, double& out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  out = std::strtod(line.c_str() + at + std::char_traits<char>::length(key), nullptr);
  return true;
}

/// Finds `"key":"` and returns the (unescaped) string literal that follows.
bool extract_string(const std::string& line, const char* key, std::string& out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  out.clear();
  for (std::size_t i = at + std::char_traits<char>::length(key); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char next = line[++i];
      switch (next) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default: out += next;
      }
      continue;
    }
    if (c == '"') return true;
    out += c;
  }
  return false;  // unterminated literal
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Tracer& tracer) {
  out << "{\"displayTimeUnit\":\"ms\",";
  if (tracer.dropped() > 0) out << "\"droppedEvents\":" << tracer.dropped() << ",";
  out << "\"traceEvents\":[\n";
  // Process metadata: one "process" per component so Perfetto's track tree
  // groups sim/msg/net/sched/worker/core.
  bool first = true;
  for (std::size_t pid = 0; pid < kComponentCount; ++pid) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"name\":\"process_name\","
        << "\"args\":{\"name\":\"" << component_name(static_cast<Component>(pid))
        << "\"}}";
  }
  for (const TraceEvent& event : tracer.events()) {
    if (!first) out << ",\n";
    first = false;
    const auto pid = static_cast<unsigned>(event.comp);
    const std::string label = json_escape(tracer.name(event.name));
    const char* cat = component_name(event.comp);
    switch (event.type) {
      case EventType::kSpan:
        out << "{\"ph\":\"X\",\"pid\":" << pid << ",\"cat\":\"" << cat
            << "\",\"name\":\"" << label << "\",\"tid\":" << event.track
            << ",\"ts\":" << event.ts << ",\"dur\":" << event.dur
            << ",\"args\":{\"id\":" << event.arg << "}}";
        break;
      case EventType::kInstant:
        out << "{\"ph\":\"i\",\"pid\":" << pid << ",\"cat\":\"" << cat
            << "\",\"name\":\"" << label << "\",\"tid\":" << event.track
            << ",\"ts\":" << event.ts << ",\"s\":\"t\",\"args\":{\"id\":" << event.arg
            << "}}";
        break;
      case EventType::kCounter:
        out << "{\"ph\":\"C\",\"pid\":" << pid << ",\"cat\":\"" << cat
            << "\",\"name\":\"" << label << "\",\"tid\":" << event.track
            << ",\"ts\":" << event.ts << ",\"args\":{\"value\":" << json_double(event.value)
            << "}}";
        break;
    }
  }
  out << "\n]}\n";
}

void write_trace_csv(std::ostream& out, const Tracer& tracer) {
  CsvWriter csv(out);
  csv.write("type", "component", "name", "track", "ts_us", "dur_us", "value", "arg");
  for (const TraceEvent& event : tracer.events()) {
    csv.write(type_name(event.type), component_name(event.comp), tracer.name(event.name),
              event.track, event.ts, event.dur, event.value, event.arg);
  }
}

std::size_t read_chrome_trace(std::istream& in, Tracer& into) {
  std::size_t imported = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string ph;
    if (!extract_string(line, "\"ph\":\"", ph)) {
      // The header line carries the exporter's drop count, if it had one.
      std::int64_t dropped = 0;
      if (extract_int(line, "\"droppedEvents\":", dropped) && dropped > 0) {
        into.add_dropped(static_cast<std::uint64_t>(dropped));
      }
      continue;
    }
    if (ph != "X" && ph != "i" && ph != "C") continue;  // metadata etc.

    TraceEvent event;
    std::int64_t pid = 0, tid = 0, ts = 0, dur = 0, arg = 0;
    std::string cat, name;
    extract_int(line, "\"pid\":", pid);
    extract_int(line, "\"tid\":", tid);
    extract_int(line, "\"ts\":", ts);
    extract_string(line, "\"name\":\"", name);
    // `cat` carries the component; fall back to the pid for traces whose
    // categories were stripped.
    if (extract_string(line, "\"cat\":\"", cat)) {
      event.comp = component_from_name(cat);
    } else if (pid >= 0 && static_cast<std::size_t>(pid) < kComponentCount) {
      event.comp = static_cast<Component>(pid);
    }
    event.track = static_cast<std::uint32_t>(tid);
    event.ts = ts;
    event.name = into.intern(name);
    if (ph == "X") {
      extract_int(line, "\"dur\":", dur);
      extract_int(line, "\"id\":", arg);
      event.type = EventType::kSpan;
      event.dur = dur;
      event.arg = static_cast<std::uint64_t>(arg);
    } else if (ph == "i") {
      extract_int(line, "\"id\":", arg);
      event.type = EventType::kInstant;
      event.arg = static_cast<std::uint64_t>(arg);
    } else {
      double value = 0.0;
      extract_double(line, "\"value\":", value);
      event.type = EventType::kCounter;
      event.value = value;
    }
    into.append(event);
    ++imported;
  }
  return imported;
}

}  // namespace dlaja::obs
