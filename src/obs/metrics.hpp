// Per-step metrics stream: the tabular counterpart to the event trace, and
// the one place the engine's per-rank counters are summed.
//
// machine_report sums the counters over the ranks into whole-machine
// totals, printable after a run. MetricsRecorder combines (a) the globally
// reduced per-step statistics the SPMD engines already agree on
// (Fmax/Fave/Fmin, energies, transfers) with (b) per-step *deltas* of those
// totals (wait time, collective time, messages, bytes) and of the fault
// injector's counters. The result is one StepMetrics row per MD step — the
// data behind the paper's Fig. 5/6 — and a CSV exporter with a fixed schema
// that downstream plotting scripts (and the schema unit test) can rely on.
// write_trace_files writes a run's Chrome trace and its rows side by side.
//
// The recorder takes rows rather than ddm::ParallelStepStats so pcmd_obs
// depends only on pcmd_sim; run::MdRun does the field mapping.
#pragma once

#include "sim/fault.hpp"

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace pcmd::sim {
class Engine;
}

namespace pcmd::obs {

class TraceCollector;

// Whole-machine totals of an engine's per-rank clocks and counters: the
// virtual-machine analogue of a profiler summary.
struct MachineReport {
  int ranks = 0;
  double makespan = 0.0;          // max virtual clock
  double min_clock = 0.0;         // min virtual clock
  double total_compute = 0.0;     // sum of compute seconds across ranks
  double total_wait = 0.0;        // sum of recv-wait seconds
  double total_collective = 0.0;  // sum of collective seconds
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_recv_timeouts = 0;

  // Parallel efficiency: compute / (ranks * makespan); 1.0 is perfect.
  double efficiency() const;
};

MachineReport machine_report(const sim::Engine& engine);

std::ostream& operator<<(std::ostream& os, const MachineReport& report);

struct StepMetrics {
  std::int64_t step = 0;
  double t_step = 0.0;     // virtual seconds for the step (paper's Tt)
  double force_max = 0.0;  // Fmax: slowest PE's force seconds
  double force_avg = 0.0;  // Fave
  double force_min = 0.0;  // Fmin
  // Whole-machine deltas for this step (summed over ranks):
  double wait_seconds = 0.0;        // recv-wait
  double collective_seconds = 0.0;  // collective synchronisation
  std::uint64_t messages = 0;       // messages sent
  std::uint64_t bytes = 0;          // bytes sent
  int transfers = 0;                // DLB column moves (or slab shifts)
  double potential_energy = 0.0;
  double kinetic_energy = 0.0;
  double temperature = 0.0;
  // Fault-tolerance accounting for this step (all zero on healthy runs):
  std::uint64_t retransmissions = 0;    // reliable-channel retries (caller)
  std::uint64_t recv_timeouts = 0;      // expired recv deadlines (engine delta)
  std::uint64_t faults_dropped = 0;     // injector: messages dropped
  std::uint64_t faults_corrupted = 0;   // injector: messages corrupted
  std::uint64_t faults_delayed = 0;     // injector: messages delayed
  // Self-healing accounting for this step (caller-forwarded deltas):
  std::uint64_t checkpoint_bytes = 0;     // buddy envelope bytes shipped
  std::uint64_t rollbacks = 0;            // all-role rollbacks executed
  std::uint64_t failovers = 0;            // roles promoted onto a spare
  std::uint64_t particles_recovered = 0;  // particles replayed from envelopes
  // Load-balancing quality for this step:
  double imbalance = 0.0;  // fractional load imbalance, Fmax/Fave - 1
  int cells_moved = 0;     // cells migrated by the balancer (columns x K)
};

class MetricsRecorder {
 public:
  // Snapshots the engine's counters as the step-0 baseline; the engine must
  // outlive the recorder.
  explicit MetricsRecorder(const sim::Engine& engine);

  // Appends `row`, whose reduced fields the caller filled from its step
  // stats, with its counter fields (wait, collective, messages, bytes,
  // recv_timeouts, faults_*) set to the deltas since the last
  // record()/construction. Call once per step, between phases.
  const StepMetrics& record(StepMetrics row);

  const std::vector<StepMetrics>& rows() const { return rows_; }

 private:
  const sim::Engine* engine_;
  MachineReport last_;
  sim::FaultCounters last_faults_;  // zero when no injector is attached
  std::vector<StepMetrics> rows_;
};

// The CSV schema, exactly as written by write_csv's first line. Asserted by
// the exporter unit test so plotting scripts never break silently.
std::string csv_header();

void write_csv(std::ostream& os, std::span<const StepMetrics> rows);

// Writes `<base>.json` (the collector's Chrome trace) and `<base>.csv` (the
// rows). Returns false if either file failed to write, naming it on stderr.
bool write_trace_files(const std::string& base,
                       const TraceCollector& collector,
                       std::span<const StepMetrics> rows);

}  // namespace pcmd::obs
