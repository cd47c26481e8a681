// Seeded violation: loaded as src/ddm/ddm_compute_charge.cpp; a ddm engine
// must charge compute through the rank-local core (ddm/rank_md), never
// sweep forces or advance a rank's clock itself.

namespace pcmd::ddm {

double fixture_sweep(md::ParticleVector& particles, const md::CellGrid& grid,
                     const md::CellBins& bins, const md::LennardJones& lj) {
  const auto result =
      md::accumulate_forces(particles, grid, bins, {}, lj);  // line 10
  return result.potential_energy;
}

void fixture_charge(sim::Comm& comm, sim::Comm* other, double& busy) {
  comm.advance(1.0);                         // line 15: member advance
  other->advance(1.0);                       // line 16: through a pointer
  busy += advance_compute(comm, 1.0, busy);  // line 17
}

struct Clock {
  int advance = 0;  // a member named advance is not a charge
};

int fixture_not_a_charge(Clock& clock, int* it) {
  std::advance(it, 1);  // the free std::advance: not a member call
  return clock.advance;  // member access, not a call
}

}  // namespace pcmd::ddm
