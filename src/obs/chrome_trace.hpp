// Chrome trace-event JSON exporter: turns a TraceCollector's recording into
// a file Perfetto (https://ui.perfetto.dev) or chrome://tracing opens
// directly. Ranks are rendered as threads of one process, virtual seconds
// as microsecond timestamps:
//
//   * spans            -> "B"/"E" duration events named by their span name;
//   * compute          -> "X" complete events nested inside the open span;
//   * recv/collective waits -> "X" events named "wait";
//   * send/recv        -> "i" instant events with peer/tag/bytes args;
//   * DLB decisions    -> "i" instant events with column/target args.
//
// Per-rank timestamps are non-decreasing by construction (virtual clocks
// are monotone), which the exporter unit tests assert through a JSON parse.
#pragma once

#include <iosfwd>

namespace pcmd::obs {

class TraceCollector;

// obs::write_trace_files (obs/metrics.hpp) writes this next to a run's
// metrics CSV.
void write_chrome_trace(std::ostream& os, const TraceCollector& collector);

}  // namespace pcmd::obs
