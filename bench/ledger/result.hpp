// What one measuring run of one workload is given and what it reports.
#pragma once

#include "registry.hpp"
#include "spans.hpp"
#include "stats.hpp"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace pcmd::ledger {

struct RunContext {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;  // measuring budget
  bool tiny = false;             // smoke size: a few steps, 20 jobs
  std::string scratch_dir;       // private directory for store/journal files
  SpanLog* spans = nullptr;      // non-null: the traced pass
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few failed checks
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // human-readable context for the report

  // Notes a latency sample as its median and the highest percentile with
  // at least ten samples beyond it, with the sample count; `scale`
  // converts the samples to milliseconds.
  void note_latency(const std::string& what, const std::vector<double>& xs,
                    double scale) {
    const double p = highest_percentile_with(xs.size());
    std::ostringstream os;
    os << what << " latency: n=" << xs.size() << " p50=" << scale * median(xs)
       << " ms";
    if (p > 50) os << " p" << p << "=" << scale * percentile(xs, p) << " ms";
    notes.push_back(os.str());
  }

  // Counts one check; a failed one is recorded with `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

}  // namespace pcmd::ledger
