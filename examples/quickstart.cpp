// Quickstart: the smallest complete pcmd program.
//
// Builds the paper's supercooled-gas system on a 3x3 grid of virtual PEs,
// runs a few hundred steps of square-pillar domain-decomposition MD with
// permanent-cell dynamic load balancing, and prints physics observables plus
// the virtual machine's utilisation report.
//
//   ./quickstart [--pe-side 3] [--m 2] [--density 0.256] [--steps 300]
//                [--dlb true] [--seed 7] [--trace out/quickstart]
//                [shared run flags — see run/run_spec.hpp]

#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

int main(int argc, char** argv) try {
  using namespace pcmd;
  const Cli cli(argc, argv);

  // 1. Describe the run exactly as the paper does: P PEs, pillar
  //    cross-section m, reduced density and temperature, DLB on or off.
  run::RunSpec defaults;
  const int pe_side = static_cast<int>(cli.get_int("pe-side", 3));
  defaults.system.pe_count = pe_side * pe_side;
  defaults.system.m = 2;
  defaults.system.density = 0.256;
  defaults.system.seed = 7;
  defaults.steps = 300;
  const auto spec = run::parse_run_spec(cli, defaults);
  run::require_all_flags_consumed(cli, "quickstart");
  const workload::PaperSystemSpec& system = spec.system;
  const bool dlb = spec.balancer.kind != ddm::BalancerKind::kNone;

  std::printf("pcmd quickstart: P=%d PEs, m=%d, C=%lld cells, N=%lld "
              "particles, T*=%.3f, rho*=%.3f, DLB=%s\n",
              system.pe_count, system.m,
              static_cast<long long>(system.total_cells()),
              static_cast<long long>(system.particle_count()),
              system.temperature, system.density, dlb ? "on" : "off");

  // 2. Build the initial condition, the virtual parallel machine (T3E-like
  //    cost model), the SPMD engine and the MD on top of it.
  run::MdRun run(spec);

  // 3. Run, reporting every 50 steps.
  Table table({"step", "T*", "E_pot/N", "Tt [s]", "Fmax/Fmin", "transfers"});
  int transfers = 0;
  for (std::int64_t i = 1; i <= spec.steps; ++i) {
    const auto stats = run.step();
    transfers += stats.transfers;
    if (i % 50 == 0 || i == spec.steps) {
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

  // 4. Machine utilisation of the whole run.
  std::cout << '\n' << obs::machine_report(run.engine()) << '\n';

  const auto ownership = run.md().check_ownership();
  std::printf("ownership invariants: %s\n", ownership.ok ? "OK" : "VIOLATED");
  return ownership.ok ? 0 : 1;
} catch (const std::exception& e) {
  return pcmd::run::exit_on_error(e);
}
