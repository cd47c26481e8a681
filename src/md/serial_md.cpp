#include "md/serial_md.hpp"

#include <numeric>
#include <stdexcept>

namespace pcmd::md {

namespace {
CellGrid make_grid(const Box& box, const SerialMdConfig& config) {
  if (config.cells_per_axis > 0) {
    return CellGrid(box, config.cells_per_axis, config.cells_per_axis,
                    config.cells_per_axis);
  }
  return CellGrid(box, config.cutoff);
}
}  // namespace

SerialMd::SerialMd(const Box& box, ParticleVector particles,
                   SerialMdConfig config)
    : box_(box),
      particles_(std::move(particles)),
      config_(config),
      lj_(config.cutoff),
      grid_(make_grid(box, config)),
      bins_(grid_, particles_),
      integrator_(config.dt) {
  if (config_.use_cell_list && !grid_.covers_cutoff(config_.cutoff)) {
    throw std::invalid_argument(
        "SerialMd: cell edge smaller than the cut-off distance");
  }
  if (config_.rescale_temperature) {
    thermostat_.emplace(*config_.rescale_temperature, config_.rescale_interval);
  }
  step_count_ = config_.initial_step;
  all_cells_.resize(grid_.num_cells());
  std::iota(all_cells_.begin(), all_cells_.end(), 0);
  last_potential_ = compute_forces().potential_energy;
}

ForceResult SerialMd::compute_forces() {
  if (!config_.use_cell_list) {
    return accumulate_forces_naive(particles_, box_, lj_);
  }
  bins_.rebuild(grid_, particles_);
  return accumulate_forces(particles_, grid_, bins_, all_cells_, lj_,
                           workspace_);
}

StepStats SerialMd::step() {
  integrator_.drift(particles_, box_);
  const ForceResult forces = compute_forces();
  integrator_.kick(particles_);
  ++step_count_;

  if (thermostat_ && thermostat_->due(step_count_)) {
    const double ke = kinetic_energy(particles_);
    const double factor = thermostat_->scale_factor(
        ke, static_cast<std::int64_t>(particles_.size()));
    RescaleThermostat::apply(particles_, factor);
  }

  last_potential_ = forces.potential_energy;
  StepStats stats;
  stats.step = step_count_;
  stats.potential_energy = forces.potential_energy;
  stats.kinetic_energy = kinetic_energy(particles_);
  stats.temperature = temperature(particles_);
  stats.virial = forces.virial;
  stats.pressure =
      pressure(stats.temperature, forces.virial,
               static_cast<std::int64_t>(particles_.size()), box_.volume());
  stats.pair_evaluations = forces.pair_evaluations;
  return stats;
}

StepStats SerialMd::run(std::int64_t n) {
  StepStats stats;
  for (std::int64_t i = 0; i < n; ++i) stats = step();
  return stats;
}

double SerialMd::total_energy() const {
  return last_potential_ + kinetic_energy(particles_);
}

}  // namespace pcmd::md
