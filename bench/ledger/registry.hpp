// The ledger's registry: every workload and every metric it emits, with
// unit, better-direction and (end-to-end metrics only) regression bound.
//
// This is the single source of BENCHMARK.json: `pcmd_ledger --registry`
// renders it byte for byte, and the ledger_registry ctest fails when the
// committed file drifts from this table. README.md explains each entry.
#pragma once

#include <string>
#include <vector>

namespace pcmd::ledger {

enum class WorkloadKind { kMd, kServe };

// Which execution tier an MD workload times.
enum class Tier { kSerial, kSeq, kThread };

struct WorkloadDef {
  const char* name;
  const char* why;  // one line; copied into BENCHMARK.json
  WorkloadKind kind;
  const char* system;  // MD: "gas_p16" | "droplet_p36"; serve: "open" | "burst"
  Tier tier;           // MD only
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  // End-to-end metrics: the share of the parent's median by which the
  // metric may worsen before a change counts as a regression. Per-layer
  // metrics carry no bound (0).
  double bound;
};

// Seconds one measuring run lasts (BENCHMARK.json "run_seconds").
inline constexpr int kRunSeconds = 8;

const std::vector<WorkloadDef>& workloads();
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

// nullptr when unknown.
const WorkloadDef* find_workload(const std::string& name);
const MetricDef* find_metric(const std::string& name);

// BENCHMARK.json, exactly as committed at the repository root.
std::string benchmark_json();

}  // namespace pcmd::ledger
