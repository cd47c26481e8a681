#include "theory/effective_range.hpp"

#include "obs/collector.hpp"
#include "theory/bounds.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcmd::theory {

BoundaryPoint extract_boundary_point(std::span<const double> f_max,
                                     std::span<const double> f_min,
                                     std::span<const double> f_avg,
                                     const Trajectory& trajectory, int m,
                                     const BoundaryConfig& config) {
  BoundaryPoint point;
  const std::int64_t step =
      detect_boundary_step(f_max, f_min, f_avg, config);
  if (step < 0 || trajectory.empty()) return point;

  point.found = true;
  point.step = step;
  // Average the concentration samples in a window around the boundary to
  // suppress single-step noise in the two-PE estimator.
  const std::int64_t window = 10;
  const std::int64_t lo = std::max<std::int64_t>(0, step - window);
  const std::int64_t hi = std::min<std::int64_t>(
      static_cast<std::int64_t>(trajectory.size()) - 1, step + window);
  double n_sum = 0.0, c_sum = 0.0;
  for (std::int64_t i = lo; i <= hi; ++i) {
    n_sum += trajectory[static_cast<std::size_t>(i)].n;
    c_sum += trajectory[static_cast<std::size_t>(i)].c0_ratio;
  }
  const double count = static_cast<double>(hi - lo + 1);
  point.n = n_sum / count;
  point.c0_ratio = c_sum / count;
  const double bound = upper_bound(m, point.n);
  point.ratio_to_theory = bound > 0.0 ? point.c0_ratio / bound : 0.0;
  return point;
}

EffectiveRangeResult synthetic_effective_range(
    const EffectiveRangeConfig& config) {
  EffectiveRangeResult result;
  result.pe_side = config.pe_side;
  result.m = config.m;

  const double k = static_cast<double>(config.pe_side) * config.m;
  const double volume = std::pow(k * config.cutoff, 3);

  std::vector<double> fit_n, fit_c;
  RunningStats ratio_stats;

  for (const double density : config.densities) {
    DensityResult dres;
    dres.density = density;
    RunningStats n_stats, c_stats;

    for (int rep = 0; rep < config.reps; ++rep) {
      SyntheticBalanceConfig sim;
      sim.pe_side = config.pe_side;
      sim.m = config.m;
      sim.cutoff = config.cutoff;
      sim.steps = config.steps;
      sim.dlb = config.dlb;
      sim.workload.particles =
          std::max<std::int64_t>(1, std::llround(density * volume));
      // Physical nucleation density: droplets form at a volume-dependent
      // rate, so the droplet count scales with the machine/box size rather
      // than staying constant.
      sim.workload.num_centers = 2 * config.pe_side * config.pe_side;
      sim.workload.seed = config.base_seed + 97 * rep +
                          static_cast<std::uint64_t>(density * 1e4);
      const auto run = run_synthetic_balance(sim);

      Trajectory trajectory;
      trajectory.reserve(run.records.size());
      for (const auto& r : run.records) trajectory.push_back(r.concentration);

      const BoundaryPoint point = extract_boundary_point(
          run.f_max_series(), run.f_min_series(), run.f_avg_series(),
          trajectory, config.m, config.boundary);
      if (point.found) {
        dres.points.push_back(point);
        n_stats.add(point.n);
        c_stats.add(point.c0_ratio);
        ratio_stats.add(point.ratio_to_theory);
      }
    }

    if (!dres.points.empty()) {
      dres.mean.found = true;
      dres.mean.n = n_stats.mean();
      dres.mean.c0_ratio = c_stats.mean();
      dres.mean.step = dres.points.front().step;
      const double bound = upper_bound(config.m, dres.mean.n);
      dres.mean.ratio_to_theory =
          bound > 0.0 ? dres.mean.c0_ratio / bound : 0.0;
      dres.n_stddev = n_stats.stddev();
      dres.c0_stddev = c_stats.stddev();
      fit_n.push_back(dres.mean.n);
      fit_c.push_back(dres.mean.c0_ratio);
    }
    result.densities.push_back(std::move(dres));
  }

  if (fit_n.size() >= 2) {
    try {
      result.experimental_boundary = fit_reciprocal(fit_n, fit_c);
    } catch (const std::invalid_argument&) {
      result.experimental_boundary.reset();
    }
  }
  result.mean_ratio_to_theory = ratio_stats.mean();
  return result;
}

MdTrajectoryResult run_md_trajectory(const MdTrajectoryConfig& config) {
  config.spec.validate();
  pcmd::Rng rng(config.spec.seed);
  const auto initial = workload::make_paper_system(config.spec, rng);

  ddm::ParallelMdConfig pmd_config;
  pmd_config.pe_side = config.spec.pe_side();
  pmd_config.m = config.spec.m;
  pmd_config.cutoff = config.spec.cutoff;
  pmd_config.dt = config.spec.dt;
  pmd_config.rescale_temperature = config.spec.temperature;
  pmd_config.rescale_interval = config.spec.rescale_interval;
  pmd_config.dlb_enabled = config.dlb_enabled;
  pmd_config.dlb = config.dlb;
  pmd_config.balancer = config.balancer;
  pmd_config.trace = config.trace;
  pmd_config.fault_tolerance = config.fault_tolerance;

  sim::SeqEngine engine(ddm::engine_rank_count(pmd_config), config.machine);
  if (config.trace) {
    engine.set_trace_sink(config.trace);
  }
  std::optional<sim::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(config.faults);
    engine.set_fault_injector(&*injector);
  }
  ddm::ParallelMd pmd(engine, config.spec.box(), initial, pmd_config);
  // Baseline the counter deltas after the constructor's initial force
  // phase, so row 0 covers exactly step 1.
  obs::MetricsRecorder recorder(engine);

  MdTrajectoryResult result;
  result.particles = static_cast<std::int64_t>(initial.size());
  result.total_cells = pmd.total_cells();
  result.t_step.reserve(config.steps);
  for (int i = 0; i < config.steps; ++i) {
    const auto stats = pmd.step();
    result.t_step.push_back(stats.t_step);
    result.f_max.push_back(stats.force_max);
    result.f_min.push_back(stats.force_min);
    result.f_avg.push_back(stats.force_avg);
    result.concentration.push_back(
        estimate_concentration(stats, pmd.total_cells()));
    result.transfers_total += stats.transfers;
    result.final_particles = stats.total_particles;

    obs::MetricsRecorder::StepInput input;
    input.step = stats.step;
    input.t_step = stats.t_step;
    input.force_max = stats.force_max;
    input.force_avg = stats.force_avg;
    input.force_min = stats.force_min;
    input.transfers = stats.transfers;
    input.potential_energy = stats.potential_energy;
    input.kinetic_energy = stats.kinetic_energy;
    input.temperature = stats.temperature;
    input.retransmissions = stats.retransmissions;
    input.checkpoint_bytes = stats.checkpoint_bytes;
    input.rollbacks = stats.rollbacks;
    input.failovers = stats.failovers;
    input.particles_recovered = stats.particles_recovered;
    input.imbalance = stats.imbalance;
    input.cells_moved = stats.cells_moved;
    recorder.record(input);
    result.retransmissions_total += stats.retransmissions;
    result.recv_timeouts_total += stats.recv_timeouts;
    result.checkpoint_bytes_total += stats.checkpoint_bytes;
    result.rollbacks_total += stats.rollbacks;
    result.failovers_total += stats.failovers;
    result.particles_recovered_total += stats.particles_recovered;

    if (config.checkpoint_every > 0 &&
        (i + 1) % config.checkpoint_every == 0) {
      result.last_checkpoint = pmd.checkpoint();
      ++result.checkpoints_taken;
    }
  }
  result.metrics = recorder.rows();
  if (config.trace) {
    engine.set_trace_sink(nullptr);
  }
  if (injector) {
    engine.set_fault_injector(nullptr);
  }
  return result;
}

}  // namespace pcmd::theory
