#include "run/trajectory.hpp"

#include "obs/collector.hpp"
#include "util/rng.hpp"

#include <optional>

namespace pcmd::run {

obs::MetricsRecorder::StepInput step_input(
    const ddm::ParallelStepStats& stats) {
  return {.step = stats.step,
          .t_step = stats.t_step,
          .force_max = stats.force_max,
          .force_avg = stats.force_avg,
          .force_min = stats.force_min,
          .transfers = stats.transfers,
          .potential_energy = stats.potential_energy,
          .kinetic_energy = stats.kinetic_energy,
          .temperature = stats.temperature,
          .retransmissions = stats.retransmissions,
          .checkpoint_bytes = stats.checkpoint_bytes,
          .rollbacks = stats.rollbacks,
          .failovers = stats.failovers,
          .particles_recovered = stats.particles_recovered,
          .imbalance = stats.imbalance,
          .cells_moved = stats.cells_moved};
}

MdTrajectoryResult run_md_trajectory(const RunSpec& spec,
                                     obs::TraceCollector* trace) {
  spec.system.validate();
  pcmd::Rng rng(spec.system.seed);
  const auto initial = workload::make_paper_system(spec.system, rng);

  ddm::ParallelMdConfig config = spec.parallel_config();
  config.trace = trace;

  // Bitwise identical to SeqEngine (the engines' parity contract), on
  // min(ranks, cores) runners.
  sim::ThreadEngine engine(ddm::engine_rank_count(config), spec.machine);
  if (trace) {
    engine.set_trace_sink(trace);
  }
  const sim::FaultPlan plan = spec.fault_plan();
  std::optional<sim::FaultInjector> injector;
  if (!plan.empty()) {
    injector.emplace(plan);
    engine.set_fault_injector(&*injector);
  }
  ddm::ParallelMd pmd(ddm::EngineConfig{.engine = &engine,
                                        .box = spec.system.box(),
                                        .initial = &initial},
                      config);
  // Baseline the counter deltas after the constructor's initial force
  // phase, so row 0 covers exactly step 1.
  obs::MetricsRecorder recorder(engine);

  MdTrajectoryResult result;
  result.particles = static_cast<std::int64_t>(initial.size());
  result.total_cells = pmd.total_cells();
  result.t_step.reserve(static_cast<std::size_t>(spec.steps));
  for (std::int64_t i = 0; i < spec.steps; ++i) {
    const auto stats = pmd.step();
    result.t_step.push_back(stats.t_step);
    result.f_max.push_back(stats.force_max);
    result.f_min.push_back(stats.force_min);
    result.f_avg.push_back(stats.force_avg);
    result.concentration.push_back(
        theory::estimate_concentration(stats, pmd.total_cells()));
    result.transfers_total += stats.transfers;
    result.final_particles = stats.total_particles;

    recorder.record(step_input(stats));
    result.retransmissions_total += stats.retransmissions;
    result.recv_timeouts_total += stats.recv_timeouts;
    result.failovers_total += stats.failovers;

    if (spec.checkpoint_every > 0 && (i + 1) % spec.checkpoint_every == 0) {
      result.last_checkpoint = pmd.checkpoint();
      ++result.checkpoints_taken;
    }
  }
  result.metrics = recorder.rows();
  if (trace) {
    engine.set_trace_sink(nullptr);
  }
  if (injector) {
    engine.set_fault_injector(nullptr);
  }
  return result;
}

}  // namespace pcmd::run
