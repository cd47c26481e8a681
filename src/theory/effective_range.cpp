#include "theory/effective_range.hpp"

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

}  // namespace pcmd::theory
