#include "ddm/rank_md.hpp"

namespace pcmd::ddm {

namespace {
// Charges `seconds` of compute to the calling rank's clock and to `busy`,
// and returns the virtual time that actually passed. The measured interval
// is charged, not the requested cost: an injected stall (sim/fault.hpp)
// stretches it, and the stretch must reach the rank's busy time for load
// balancing to see, and shed, the slow rank.
double advance_compute(sim::Comm& comm, double seconds, double& busy) {
  const double before = comm.clock();
  comm.advance(seconds);
  const double elapsed = comm.clock() - before;
  busy += elapsed;
  return elapsed;
}
}  // namespace

void RankMd::drift(sim::Comm& comm, const sim::MachineModel& model,
                   const md::VelocityVerlet& integrator, const Box& box) {
  busy_accum = 0.0;
  advance_compute(comm, model.particle_cost * owned.size(), busy_accum);
  integrator.drift(owned, box);
}

void RankMd::begin_halo() { with_halo = owned; }

void RankMd::add_halo(const std::vector<HaloRecord>& records) {
  for (const auto& record : records) {
    md::Particle p;
    p.id = record.id;
    p.position = record.position;
    with_halo.push_back(p);
  }
}

std::pair<md::ForceResult, double> RankMd::compute_forces(
    sim::Comm& comm, const sim::MachineModel& model, const md::CellGrid& grid,
    const md::LennardJones& lj) {
  bins.rebuild(grid, with_halo);
  const auto result = md::accumulate_forces(with_halo, grid, bins,
                                            target_cells, lj, workspace);
  const double seconds = advance_compute(
      comm,
      model.pair_cost * result.pair_evaluations +
          model.cell_cost * target_cells.size(),
      busy_accum);
  owned.assign(with_halo.begin(), with_halo.begin() + owned.size());
  return {result, seconds};
}

void RankMd::finish_reductions(sim::Comm& comm) {
  sums = comm.collective_end();
  maxes = comm.collective_end();
  mins = comm.collective_end();
}

}  // namespace pcmd::ddm
