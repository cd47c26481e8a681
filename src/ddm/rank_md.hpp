// The rank-local half of one MD step, shared by the square-pillar engine
// (ParallelMd) and the slab baseline (SlabMd): the drift, the halo copies,
// the force sweep over the rank's cells and the collected reductions, each
// with its virtual-time compute charge. This is the only place in ddm that
// charges compute, so both engines pay particle_cost, pair_cost and
// cell_cost alike. What differs stays in each engine: which cells a rank
// owns (columns or layers), its neighbours (the 8-neighbour torus or the
// ring), the transport, the reductions posted, and the trace spans and
// happens-before stamps around these calls.
#pragma once

#include "ddm/wire.hpp"
#include "md/cell_grid.hpp"
#include "md/integrator.hpp"
#include "md/lj.hpp"
#include "md/particle.hpp"
#include "sim/comm.hpp"
#include "sim/cost_model.hpp"
#include "util/pbc.hpp"

#include <utility>
#include <vector>

namespace pcmd::ddm {

struct RankMd {
  md::ParticleVector owned;
  md::ParticleVector with_halo;  // owned first, then the neighbours' copies
  md::CellBins bins;
  md::ForceWorkspace workspace;
  std::vector<int> target_cells;         // sorted; filled by the engine
  std::vector<HaloRecord> halo_records;  // halo-pack scratch
  double last_busy = 0.0;   // previous step's compute seconds
  double busy_accum = 0.0;  // this step's compute seconds so far
  double force_seconds = 0.0;
  std::vector<double> sums, maxes, mins;  // the step's reduced results

  // Starts the step's busy time with particle_cost per owned particle, then
  // drifts (first Verlet half-step).
  void drift(sim::Comm& comm, const sim::MachineModel& model,
             const md::VelocityVerlet& integrator, const Box& box);

  // begin_halo resets with_halo to the owned particles; add_halo appends
  // one neighbour's records as position-only copies.
  void begin_halo();
  void add_halo(const std::vector<HaloRecord>& records);

  // Forces on target_cells from with_halo, copied back into owned. Charges
  // pair_cost per pair evaluation plus cell_cost per target cell and
  // returns the result with the virtual seconds that actually passed.
  std::pair<md::ForceResult, double> compute_forces(
      sim::Comm& comm, const sim::MachineModel& model,
      const md::CellGrid& grid, const md::LennardJones& lj);

  // Collects the sum, max and min reductions the engine posted, in order.
  void finish_reductions(sim::Comm& comm);
};

}  // namespace pcmd::ddm
