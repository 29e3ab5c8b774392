#pragma once
// Trace exporters/importer.
//
// The JSON exporter writes the Chrome trace-event format (the JSON Object
// Format variant, one event object per line inside "traceEvents"), which
// chrome://tracing and Perfetto load directly. Simulated ticks are
// microseconds, exactly the unit the format expects for ts/dur, so no
// scaling happens on export. The CSV exporter is a compact flat dump for
// ad-hoc analysis (pandas, sqlite).
//
// read_chrome_trace() parses traces written by write_chrome_trace() back
// into a Tracer, so `dlaja_trace profile` can post-process a recorded run
// without re-simulating it. It is a line-oriented reader for our own
// writer's output, not a general JSON parser.

#include <iosfwd>

#include "obs/trace.hpp"

namespace dlaja::obs {

/// Writes all recorded events as Chrome trace-event JSON. Components become
/// processes (with name metadata), tracks become thread ids, spans "X"
/// complete events, instants "i", counters "C".
void write_chrome_trace(std::ostream& out, const Tracer& tracer);

/// Writes a flat CSV: type,component,name,track,ts_us,dur_us,value,arg.
void write_trace_csv(std::ostream& out, const Tracer& tracer);

/// Reads a trace produced by write_chrome_trace() into `into` (appending;
/// names are re-interned). Returns the number of events imported. Metadata
/// events are skipped; unrecognised lines are ignored.
std::size_t read_chrome_trace(std::istream& in, Tracer& into);

}  // namespace dlaja::obs
