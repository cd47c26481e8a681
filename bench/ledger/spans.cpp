#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace pcmd::ledger {

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

SpanLog::SpanLog() : names_{""} { spans_.reserve(1 << 16); }

std::uint32_t SpanLog::intern(const std::string& name) {
  if (const std::uint32_t id = find(name); id != 0 || name.empty()) {
    return id;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanLog::find(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  return it == names_.end()
             ? 0
             : static_cast<std::uint32_t>(it - names_.begin());
}

void SpanLog::begin(std::uint32_t name, std::int64_t trace) {
  const std::int64_t start = now_ns();
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(add(name, start, start, parent, trace, 0));
}

void SpanLog::end() {
  if (open_.empty()) throw std::logic_error("SpanLog::end: no open span");
  spans_[static_cast<std::size_t>(open_.back())].end = now_ns();
  open_.pop_back();
}

std::int32_t SpanLog::add(std::uint32_t name, std::int64_t start,
                          std::int64_t end, std::int32_t parent,
                          std::int64_t trace, std::int32_t tid) {
  spans_.push_back({name, start, end, parent, trace, tid});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::vector<std::int32_t>> SpanLog::children_by_start() const {
  std::vector<std::vector<std::int32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  for (auto& kids : children) {
    std::sort(kids.begin(), kids.end(), [&](std::int32_t a, std::int32_t b) {
      return spans_[static_cast<std::size_t>(a)].start <
             spans_[static_cast<std::size_t>(b)].start;
    });
  }
  return children;
}

std::vector<std::int64_t> SpanLog::self_times() const {
  const auto children = children_by_start();
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the span.
    std::int64_t covered = 0;
    std::int64_t cursor = span.start;
    for (const std::int32_t k : children[i]) {
      const Span& kid = spans_[static_cast<std::size_t>(k)];
      const std::int64_t lo = std::max(kid.start, cursor);
      const std::int64_t hi = std::min(kid.end, span.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (span.end - span.start) - covered;
  }
  return self;
}

bool SpanLog::nested() const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < span.start) return false;
    if (span.parent < 0) continue;
    if (static_cast<std::size_t>(span.parent) >= i) return false;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (span.start < parent.start || span.end > parent.end) return false;
  }
  // Siblings on one track must not overlap.
  for (const auto& kids : children_by_start()) {
    for (std::size_t k = 1; k < kids.size(); ++k) {
      const Span& prev = spans_[static_cast<std::size_t>(kids[k - 1])];
      const Span& next = spans_[static_cast<std::size_t>(kids[k])];
      if (prev.tid == next.tid && next.start < prev.end) return false;
    }
  }
  return true;
}

void SpanLog::write_chrome_events(std::ostream& os, int pid,
                                  std::size_t limit) const {
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    // Chrome timestamps are microseconds; keep the nanosecond digits.
    char times[64];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3);
    os << "{\"name\":\"" << names_[s.name] << "\",\"ph\":\"X\"," << times
       << ",\"pid\":" << pid << ",\"tid\":" << s.tid
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"trace\":" << s.trace << "}}\n";
  }
}

}  // namespace pcmd::ledger
