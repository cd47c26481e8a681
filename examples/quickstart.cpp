// Quickstart: the smallest complete pcmd program.
//
// Builds the paper's supercooled-gas system on a 3x3 grid of virtual PEs,
// runs a few hundred steps of square-pillar domain-decomposition MD with
// permanent-cell dynamic load balancing, and prints physics observables plus
// the virtual machine's utilisation report.
//
//   ./quickstart [--pe-side 3] [--m 2] [--density 0.256] [--steps 300]
//                [--dlb true] [--seed 7]

#include "ddm/parallel_md.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/paper_system.hpp"

#include <cstdio>
#include <iostream>

int main(int argc, char** argv) {
  using namespace pcmd;
  const Cli cli(argc, argv);

  // 1. Describe the system exactly as the paper does: P PEs, pillar
  //    cross-section m, reduced density and temperature.
  workload::PaperSystemSpec spec;
  spec.pe_count = static_cast<int>(cli.get_int("pe-side", 3)) *
                  static_cast<int>(cli.get_int("pe-side", 3));
  spec.m = static_cast<int>(cli.get_int("m", 2));
  spec.density = cli.get_double("density", 0.256);
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const auto steps = cli.get_int("steps", 300);
  const bool dlb = cli.get_bool("dlb", true);

  std::printf("pcmd quickstart: P=%d PEs, m=%d, C=%lld cells, N=%lld "
              "particles, T*=%.3f, rho*=%.3f, DLB=%s\n",
              spec.pe_count, spec.m, static_cast<long long>(spec.total_cells()),
              static_cast<long long>(spec.particle_count()), spec.temperature,
              spec.density, dlb ? "on" : "off");

  // 2. Generate the initial condition.
  Rng rng(spec.seed);
  const auto initial = workload::make_paper_system(spec, rng);

  // 3. Build the virtual parallel machine (T3E-like cost model) and the
  //    SPMD engine on top of it.
  sim::ThreadEngine engine(spec.pe_count, sim::MachineModel::t3e());
  ddm::ParallelMdConfig config;
  config.pe_side = spec.pe_side();
  config.m = spec.m;
  config.dt = spec.dt;
  config.rescale_temperature = spec.temperature;
  config.rescale_interval = spec.rescale_interval;
  config.balancer.kind =
      dlb ? ddm::BalancerKind::kPermanent : ddm::BalancerKind::kNone;
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine, .box = spec.box(),
                                       .initial = &initial},
                     config);

  // 4. Run, reporting every 50 steps.
  Table table({"step", "T*", "E_pot/N", "Tt [s]", "Fmax/Fmin", "transfers"});
  int transfers = 0;
  for (std::int64_t i = 1; i <= steps; ++i) {
    const auto stats = md.step();
    transfers += stats.transfers;
    if (i % 50 == 0 || i == steps) {
      table.add_row({std::to_string(i), Table::num(stats.temperature, 4),
                     Table::num(stats.potential_energy / stats.total_particles, 4),
                     Table::num(stats.t_step, 4),
                     Table::num(stats.force_min > 0
                                    ? stats.force_max / stats.force_min
                                    : 0.0,
                                3),
                     std::to_string(transfers)});
    }
  }
  table.print(std::cout);

  // 5. Machine utilisation of the whole run.
  std::cout << '\n' << sim::machine_report(engine) << '\n';

  const auto ownership = md.check_ownership();
  std::printf("ownership invariants: %s\n", ownership.ok ? "OK" : "VIOLATED");
  return ownership.ok ? 0 : 1;
}
