// The full-MD trajectory driver behind the Fig. 5/6/9 harnesses and
// Fig. 10 --full: one RunSpec run on a ThreadEngine, step by step, with the
// per-step series the Section 4 analysis reads (theory/effective_range.hpp)
// and the metrics rows the trace sinks write.
#pragma once

#include "ddm/parallel_md.hpp"
#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "sim/message.hpp"
#include "theory/concentration.hpp"

#include <cstdint>
#include <vector>

namespace pcmd::obs {
class TraceCollector;
}

namespace pcmd::run {

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

// The metrics row inputs of one ParallelMd step, for obs::MetricsRecorder.
obs::MetricsRecorder::StepInput step_input(const ddm::ParallelStepStats& stats);

// Runs the spec's paper system for spec.steps steps on a SeqEngine, under
// spec.fault_plan(), checkpointing every spec.checkpoint_every (> 0) steps.
// A non-null `trace` (not owned) receives the engine's message events and
// the MD engine's sub-step spans; the caller owns it and writes its files
// to spec.trace_path.
MdTrajectoryResult run_md_trajectory(const RunSpec& spec,
                                     obs::TraceCollector* trace = nullptr);

}  // namespace pcmd::run
