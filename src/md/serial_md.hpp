// Serial reference MD engine. It is the single-PE baseline for the parallel
// engines and the ground truth for their physics: the SPMD engine must
// reproduce its trajectories (bitwise for the forces, to rounding for the
// globally reduced quantities).
#pragma once

#include "md/cell_grid.hpp"
#include "md/integrator.hpp"
#include "md/lj.hpp"
#include "md/observables.hpp"
#include "md/particle.hpp"
#include "md/thermostat.hpp"
#include "util/pbc.hpp"

#include <cstdint>
#include <optional>

namespace pcmd::md {

struct SerialMdConfig {
  double dt = 0.005;
  double cutoff = 2.5;
  // Cells per axis; 0 derives the grid from the cut-off.
  int cells_per_axis = 0;
  // Thermostat; nullopt = pure NVE.
  std::optional<double> rescale_temperature = std::nullopt;
  int rescale_interval = 50;
  bool use_cell_list = true;  // false: O(N^2) force path
  // Step counter offset for restarts: a run checkpointed at step S and
  // resumed with initial_step = S reproduces the uninterrupted trajectory
  // bitwise (the thermostat schedule depends on the absolute step number).
  std::int64_t initial_step = 0;
};

struct StepStats {
  std::int64_t step = 0;
  double potential_energy = 0.0;
  double kinetic_energy = 0.0;
  double temperature = 0.0;
  double virial = 0.0;
  double pressure = 0.0;
  std::uint64_t pair_evaluations = 0;
};

class SerialMd {
 public:
  SerialMd(const Box& box, ParticleVector particles, SerialMdConfig config);

  // Advances one time step and returns its statistics.
  StepStats step();

  // Runs n steps, returning the last step's statistics.
  StepStats run(std::int64_t n);

  const ParticleVector& particles() const { return particles_; }
  const Box& box() const { return box_; }
  const CellGrid& grid() const { return grid_; }
  const CellBins& bins() const { return bins_; }
  std::int64_t step_count() const { return step_count_; }
  double total_energy() const;

 private:
  ForceResult compute_forces();

  Box box_;
  ParticleVector particles_;
  SerialMdConfig config_;
  LennardJones lj_;
  CellGrid grid_;
  CellBins bins_;
  ForceWorkspace workspace_;
  VelocityVerlet integrator_;
  std::optional<RescaleThermostat> thermostat_;
  std::vector<int> all_cells_;
  std::int64_t step_count_ = 0;
  double last_potential_ = 0.0;
};

}  // namespace pcmd::md
