#include "run/trajectory.hpp"

#include "util/rng.hpp"

#include <cstdio>
#include <exception>

namespace pcmd::run {

namespace {
// Validates the spec's system before anything is sized from it.
int validated_rank_count(const RunSpec& spec) {
  spec.system.validate();
  return ddm::engine_rank_count(spec.parallel_config());
}

// The metrics row of one ParallelMd step, its reduced fields filled, for
// obs::MetricsRecorder::record.
obs::StepMetrics step_input(const ddm::ParallelStepStats& stats) {
  obs::StepMetrics row;
  row.step = stats.step;
  row.t_step = stats.t_step;
  row.force_max = stats.force_max;
  row.force_avg = stats.force_avg;
  row.force_min = stats.force_min;
  row.transfers = stats.transfers;
  row.potential_energy = stats.potential_energy;
  row.kinetic_energy = stats.kinetic_energy;
  row.temperature = stats.temperature;
  row.retransmissions = stats.retransmissions;
  row.checkpoint_bytes = stats.checkpoint_bytes;
  row.rollbacks = stats.rollbacks;
  row.failovers = stats.failovers;
  row.particles_recovered = stats.particles_recovered;
  row.imbalance = stats.imbalance;
  row.cells_moved = stats.cells_moved;
  return row;
}
}  // namespace

MdRun::MdRun(const RunSpec& spec)
    : spec_(spec), engine_(validated_rank_count(spec), spec.machine) {
  Rng rng(spec.system.seed);
  const auto initial = workload::make_paper_system(spec.system, rng);
  particles_ = static_cast<std::int64_t>(initial.size());

  const sim::FaultPlan plan = spec.fault_plan();
  if (!plan.empty()) {
    injector_.emplace(plan);
    engine_.set_fault_injector(&*injector_);
  }
  ddm::ParallelMdConfig config = spec.parallel_config();
  if (spec.trace_path) {
    collector_.emplace();
    engine_.set_trace_sink(&*collector_);
    config.trace = &*collector_;
  }
  md_.emplace(ddm::EngineConfig{.engine = &engine_,
                                .box = spec.system.box(),
                                .initial = &initial},
              config);
  recorder_.emplace(engine_);
}

MdRun::~MdRun() {
  engine_.set_fault_injector(nullptr);
  engine_.set_trace_sink(nullptr);
  if (!collector_) return;
  try {
    obs::write_trace_files(*spec_.trace_path, *collector_, recorder_->rows());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace: failed to write %s: %s\n",
                 spec_.trace_path->c_str(), e.what());
  }
}

ddm::ParallelStepStats MdRun::step() {
  const ddm::ParallelStepStats stats = md_->step();
  recorder_->record(step_input(stats));
  ++steps_;
  if (spec_.checkpoint_every > 0 && steps_ % spec_.checkpoint_every == 0) {
    last_checkpoint_ = md_->checkpoint();
    ++checkpoints_taken_;
  }
  return stats;
}

MdTrajectoryResult run_md_trajectory(const RunSpec& spec) {
  MdRun run(spec);
  MdTrajectoryResult result;
  result.particles = run.particles();
  result.total_cells = run.md().total_cells();
  result.t_step.reserve(static_cast<std::size_t>(spec.steps));
  for (std::int64_t i = 0; i < spec.steps; ++i) {
    const auto stats = run.step();
    result.t_step.push_back(stats.t_step);
    result.f_max.push_back(stats.force_max);
    result.f_min.push_back(stats.force_min);
    result.f_avg.push_back(stats.force_avg);
    result.concentration.push_back(
        theory::estimate_concentration(stats, result.total_cells));
    result.transfers_total += stats.transfers;
    result.final_particles = stats.total_particles;
    result.retransmissions_total += stats.retransmissions;
    result.recv_timeouts_total += stats.recv_timeouts;
    result.failovers_total += stats.failovers;
  }
  result.metrics = run.rows();
  result.checkpoints_taken = run.checkpoints_taken();
  result.last_checkpoint = run.last_checkpoint();
  return result;
}

DdmDlbRuns run_ddm_and_dlb(const RunSpec& spec) {
  RunSpec ddm_spec = spec;
  ddm_spec.with_balancer(ddm::BalancerKind::kNone);
  RunSpec dlb_spec = spec;
  if (dlb_spec.balancer.kind == ddm::BalancerKind::kNone) {
    dlb_spec.with_balancer(ddm::BalancerKind::kPermanent);
  }
  if (spec.trace_path) {
    ddm_spec.with_trace(*spec.trace_path + ".ddm");
    dlb_spec.with_trace(*spec.trace_path + ".dlb");
  }
  return {run_md_trajectory(ddm_spec), run_md_trajectory(dlb_spec)};
}

}  // namespace pcmd::run
