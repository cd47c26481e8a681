// The one driver that turns a RunSpec into a running ParallelMd, behind
// every harness that runs a paper system (Figs. 5/6/9, Fig. 10 --full-md,
// the scaling study, the examples): MdRun steps one run and keeps its
// metrics rows, checkpoint cadence and trace files; run_md_trajectory runs
// a spec to the end and returns the per-step series the Section 4 analysis
// reads (theory/effective_range.hpp).
#pragma once

#include "ddm/parallel_md.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "theory/concentration.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace pcmd::run {

// One RunSpec as a running ParallelMd. Builds the spec's paper system from
// its seed; a ThreadEngine sized for it (spares included) on the spec's
// machine model, bitwise identical to SeqEngine (the engines' parity
// contract) on min(ranks, cores) runners; a FaultInjector over
// spec.fault_plan() when that is not empty; a TraceCollector when
// spec.trace_path is set; the ParallelMd; and a MetricsRecorder baselined
// after the init phases, so row 0 covers exactly step 1. A plan naming a
// rank the engine lacks throws std::invalid_argument before the first
// phase.
class MdRun {
 public:
  explicit MdRun(const RunSpec& spec);
  // Detaches the injector and the collector; with a trace path P, writes
  // P.json (the Chrome trace) and P.csv (the metrics rows).
  ~MdRun();

  MdRun(const MdRun&) = delete;
  MdRun& operator=(const MdRun&) = delete;

  // One MD step: records its metrics row, and checkpoints every
  // spec.checkpoint_every (> 0) steps.
  ddm::ParallelStepStats step();

  ddm::ParallelMd& md() { return *md_; }
  const sim::Engine& engine() const { return engine_; }
  std::int64_t particles() const { return particles_; }  // initial count
  const std::vector<obs::StepMetrics>& rows() const {
    return recorder_->rows();
  }
  int checkpoints_taken() const { return checkpoints_taken_; }
  const sim::Buffer& last_checkpoint() const { return last_checkpoint_; }

 private:
  RunSpec spec_;
  sim::ThreadEngine engine_;
  std::optional<sim::FaultInjector> injector_;
  std::optional<obs::TraceCollector> collector_;
  std::optional<ddm::ParallelMd> md_;
  std::optional<obs::MetricsRecorder> recorder_;
  std::int64_t particles_ = 0;
  std::int64_t steps_ = 0;
  int checkpoints_taken_ = 0;
  sim::Buffer last_checkpoint_;
};

struct MdTrajectoryResult {
  std::vector<double> t_step;  // Tt per step (virtual seconds)
  std::vector<double> f_max;
  std::vector<double> f_min;
  std::vector<double> f_avg;
  theory::Trajectory concentration;
  // One row per step: the ad-hoc series above plus engine counters (wait
  // time, messages, bytes) and energies, ready for obs::write_csv.
  std::vector<obs::StepMetrics> metrics;
  int transfers_total = 0;
  std::int64_t particles = 0;
  std::int64_t final_particles = 0;  // the engine's count after the last step
  int total_cells = 0;
  // Fault-tolerance accounting over the whole run:
  std::uint64_t retransmissions_total = 0;
  std::uint64_t recv_timeouts_total = 0;
  std::uint64_t failovers_total = 0;  // self-healing
  int checkpoints_taken = 0;
  sim::Buffer last_checkpoint;  // empty unless spec.checkpoint_every > 0
};

// Runs the spec for spec.steps steps through one MdRun.
MdTrajectoryResult run_md_trajectory(const RunSpec& spec);

// The paper's comparison on one system (Figs. 5 and 6).
struct DdmDlbRuns {
  MdTrajectoryResult ddm;
  MdTrajectoryResult dlb;
};

// Runs `spec` under DDM (no balancer), then under DLB-DDM with the spec's
// balancer, or the paper's when the spec names none. With a trace path P,
// the runs trace to P.ddm and P.dlb.
DdmDlbRuns run_ddm_and_dlb(const RunSpec& spec);

}  // namespace pcmd::run
