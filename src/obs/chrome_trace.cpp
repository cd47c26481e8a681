#include "obs/chrome_trace.hpp"

#include "obs/collector.hpp"

#include <cstdio>
#include <ostream>
#include <string>

namespace pcmd::obs {

namespace {

// Microsecond timestamps with sub-ns resolution kept; %.6f avoids
// exponent notation, which some trace viewers mishandle in "ts".
std::string us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds * 1e6);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  // Starts one trace event object; follow with arg()s and finish().
  void begin(const std::string& name, const char* ph, int tid, double t) {
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    os_ << R"({"name":")" << escape(name) << R"(","ph":")" << ph
        << R"(","pid":0,"tid":)" << tid << R"(,"ts":)" << us(t);
  }

  void duration(double seconds) { os_ << R"(,"dur":)" << us(seconds); }
  void instant_scope() { os_ << R"(,"s":"t")"; }

  template <typename T>
  void arg(const char* key, const T& value) {
    os_ << (args_open_ ? "," : R"(,"args":{)") << '"' << key << R"(":)"
        << value;
    args_open_ = true;
  }

  void finish() {
    if (args_open_) os_ << '}';
    args_open_ = false;
    os_ << '}';
  }

 private:
  std::ostream& os_;
  bool first_ = true;
  bool args_open_ = false;
};

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceCollector& collector) {
  os << R"({"displayTimeUnit":"ms","traceEvents":[)";
  EventWriter w(os);

  for (int rank = 0; rank < collector.ranks(); ++rank) {
    // Thread metadata so viewers label each lane "rank N".
    w.begin("thread_name", "M", rank, 0.0);
    w.arg("name", "\"rank " + std::to_string(rank) + '"');
    w.finish();
  }

  for (int rank = 0; rank < collector.ranks(); ++rank) {
    for (const TraceEvent& event : collector.events(rank)) {
      switch (event.kind) {
        case EventKind::kSpanBegin:
          w.begin(collector.name(event.name), "B", rank, event.t);
          w.finish();
          break;
        case EventKind::kSpanEnd:
          w.begin(collector.name(event.name), "E", rank, event.t);
          w.finish();
          break;
        case EventKind::kCompute:
          w.begin("compute", "X", rank, event.t);
          w.duration(event.value);
          w.finish();
          break;
        case EventKind::kMessageSend:
          w.begin("send", "i", rank, event.t);
          w.instant_scope();
          w.arg("peer", event.a);
          w.arg("tag", event.b);
          w.arg("bytes", event.bytes);
          w.finish();
          break;
        case EventKind::kMessageRecv:
          if (event.value > 0.0) {
            w.begin("wait", "X", rank, event.t - event.value);
            w.duration(event.value);
            w.finish();
          }
          w.begin("recv", "i", rank, event.t);
          w.instant_scope();
          w.arg("peer", event.a);
          w.arg("tag", event.b);
          w.arg("bytes", event.bytes);
          w.finish();
          break;
        case EventKind::kCollectiveBegin:
          w.begin("collective_begin", "i", rank, event.t);
          w.instant_scope();
          w.arg("op", event.a);
          w.arg("width", event.b);
          w.finish();
          break;
        case EventKind::kCollectiveEnd:
          if (event.value > 0.0) {
            w.begin("wait", "X", rank, event.t - event.value);
            w.duration(event.value);
            w.finish();
          }
          w.begin("collective_end", "i", rank, event.t);
          w.instant_scope();
          w.finish();
          break;
        case EventKind::kDlbDecision:
          w.begin("dlb_decision", "i", rank, event.t);
          w.instant_scope();
          w.arg("column", event.a);
          w.arg("target", event.b);
          w.finish();
          break;
        case EventKind::kCounter:
          w.begin(collector.name(event.name), "C", rank, event.t);
          w.arg("value", event.value);
          w.finish();
          break;
      }
    }
  }
  os << "\n]}\n";
}

}  // namespace pcmd::obs
