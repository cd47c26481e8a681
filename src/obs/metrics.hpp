// Per-step metrics stream: the tabular counterpart to the event trace.
//
// MetricsRecorder combines (a) the globally reduced per-step statistics the
// SPMD engines already agree on (Fmax/Fave/Fmin, energies, transfers) with
// (b) per-step *deltas* of the engine's rank counters (wait time, collective
// time, messages, bytes) snapshotted across calls. The result is one
// StepMetrics row per MD step — the data behind the paper's Fig. 5/6 — and
// a CSV exporter with a fixed schema that downstream plotting scripts (and
// the schema unit test) can rely on.
//
// The recorder takes scalar inputs rather than ddm::ParallelStepStats so
// pcmd_obs depends only on pcmd_sim; run::run_md_trajectory does the
// field mapping.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace pcmd::sim {
class Engine;
}

namespace pcmd::obs {

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
  // Reduced per-step values, filled by the caller from its step stats.
  struct StepInput {
    std::int64_t step = 0;
    double t_step = 0.0;
    double force_max = 0.0;
    double force_avg = 0.0;
    double force_min = 0.0;
    int transfers = 0;
    double potential_energy = 0.0;
    double kinetic_energy = 0.0;
    double temperature = 0.0;
    // Per-step reliable-channel retries; the channels live in the MD engine,
    // so the caller forwards them (e.g. ParallelStepStats::retransmissions).
    std::uint64_t retransmissions = 0;
    // Self-healing deltas, forwarded from ParallelStepStats likewise.
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t failovers = 0;
    std::uint64_t particles_recovered = 0;
    // Balancer quality, forwarded from ParallelStepStats likewise.
    double imbalance = 0.0;
    int cells_moved = 0;
  };

  // Snapshots the engine's counters as the step-0 baseline; the engine must
  // outlive the recorder.
  explicit MetricsRecorder(const sim::Engine& engine);

  // Appends one row: `input` verbatim plus counter deltas since the last
  // record()/construction. Call once per step, between phases.
  const StepMetrics& record(const StepInput& input);

  const std::vector<StepMetrics>& rows() const { return rows_; }

 private:
  struct Snapshot {
    double wait = 0.0;
    double collective = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t recv_timeouts = 0;
    // From the engine's fault injector (zero when none is attached):
    std::uint64_t faults_dropped = 0;
    std::uint64_t faults_corrupted = 0;
    std::uint64_t faults_delayed = 0;
  };
  Snapshot total() const;

  const sim::Engine* engine_;
  Snapshot last_;
  std::vector<StepMetrics> rows_;
};

// The CSV schema, exactly as written by write_csv's first line. Asserted by
// the exporter unit test so plotting scripts never break silently.
std::string csv_header();

void write_csv(std::ostream& os, std::span<const StepMetrics> rows);
bool write_csv_file(const std::string& path, std::span<const StepMetrics> rows);

}  // namespace pcmd::obs
