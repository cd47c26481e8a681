// Host-time spans for the ledger's traced pass.
//
// Spans are recorded in memory around calls into each layer — from the
// benchmark's own files, never inside src/ — and written out when the run
// ends. A span has a name, start, end, parent and trace id (the step
// number for MD, the job index for serve). A layer's self time is its
// span's duration minus the part of that interval its children cover.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace pcmd::ledger {

// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns();

struct Span {
  std::uint32_t name = 0;
  std::int64_t start = 0;  // ns, now_ns() clock
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into the log; -1 for a root
  std::int64_t trace = 0;
  std::int32_t tid = 0;  // Chrome-trace track
};

class SpanLog {
 public:
  SpanLog();

  std::uint32_t intern(const std::string& name);
  // The id of an interned name; 0 (the empty name) when never interned.
  std::uint32_t find(const std::string& name) const;

  // Stack-driven spans for single-threaded callers: begin() opens a child
  // of the innermost open span at now_ns(), end() closes that span.
  void begin(std::uint32_t name, std::int64_t trace);
  void end();

  // A completed span with explicit times; returns its index.
  std::int32_t add(std::uint32_t name, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::int64_t trace, std::int32_t tid);

  const std::vector<Span>& spans() const { return spans_; }

  // Per-span self time: duration minus the union of its children's
  // intervals clipped to the span.
  std::vector<std::int64_t> self_times() const;

  // True when every child lies inside its parent and no two siblings on
  // one track overlap.
  bool nested() const;

  // Child indices of every span, each list sorted by start time.
  std::vector<std::vector<std::int32_t>> children_by_start() const;

  // Chrome trace-event objects, one per line, for the first `limit` spans;
  // `pid` separates workloads in a merged file.
  void write_chrome_events(std::ostream& os, int pid,
                           std::size_t limit) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace pcmd::ledger
