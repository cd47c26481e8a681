// Figure 9 reproduction: the trajectory of one MD simulation in
// (n, C0/C) space.
//
// As the supercooled gas condenses, both the empty-cell ratio C0/C and the
// concentration factor n climb from their balanced starting point; the paper
// marks the experimental boundary point where Fmax - Fmin begins to grow.
// This bench prints the trajectory samples and, when found, the boundary.
//
//   ./fig9_trajectory [--steps 2500] [--interval 166] [--density 0.384]
//                     [--m 3] [--seed 2] [--full] [--trace out/fig9]
//                     [shared run flags — see run/run_spec.hpp]
//
// --trace PATH writes the run's Chrome trace-event JSON (PATH.json) and its
// per-step metrics CSV (PATH.csv).

#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "theory/bounds.hpp"
#include "theory/effective_range.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

using namespace pcmd;

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const bool full = cli.get_bool("full", false);
  run::RunSpec defaults;
  defaults.system.pe_count = full ? 36 : 9;
  defaults.system.m = 3;
  defaults.system.density = 0.384;
  defaults.system.seed = 2;
  defaults.steps = full ? 8000 : 2500;
  const auto spec = run::parse_run_spec(cli, defaults);
  const int steps = static_cast<int>(spec.steps);
  const int interval =
      static_cast<int>(cli.get_int("interval", std::max(1, steps / 15)));
  run::require_all_flags_consumed(cli, "fig9_trajectory");
  const workload::PaperSystemSpec& system = spec.system;

  std::printf("== Figure 9: (n, C0/C) trajectory of one DLB-DDM run "
              "(%d PEs, m=%d, rho*=%.3f) ==\n\n",
              system.pe_count, system.m, system.density);

  const auto result = run::run_md_trajectory(spec);

  Table table({"step", "n", "C0/C", "f(m,n) bound", "(Fmax-Fmin)/Fave"});
  for (int hi = interval; hi <= steps; hi += interval) {
    double n = 0, c0c = 0, spread = 0;
    for (int i = hi - interval; i < hi; ++i) {
      n += result.concentration[i].n;
      c0c += result.concentration[i].c0_ratio;
      spread += result.f_avg[i] > 0
                    ? (result.f_max[i] - result.f_min[i]) / result.f_avg[i]
                    : 0.0;
    }
    const double inv = 1.0 / interval;
    n *= inv;
    c0c *= inv;
    spread *= inv;
    table.add_row({std::to_string(hi), Table::num(n, 4), Table::num(c0c, 4),
                   Table::num(theory::upper_bound(system.m, n), 4),
                   Table::num(spread, 3)});
  }
  table.print(std::cout);

  const auto point = theory::extract_boundary_point(
      result.f_max, result.f_min, result.f_avg, result.concentration,
      system.m);
  if (point.found) {
    std::printf("\nexperimental boundary point: step %lld, n = %.3f, "
                "C0/C = %.4f (theory bound f(m,n) = %.4f, E/T = %.2f)\n",
                static_cast<long long>(point.step), point.n, point.c0_ratio,
                theory::upper_bound(system.m, point.n),
                point.ratio_to_theory);
  } else {
    std::puts("\nno boundary point inside this run: the trajectory stayed "
              "within DLB's effective range (increase --steps or --density "
              "to push it over)");
  }
  std::puts("paper shape: the trajectory starts near (1, 0) and climbs as "
            "condensation proceeds; the boundary appears where the force "
            "spread starts growing.");
  return 0;
} catch (const std::exception& e) {
  return run::exit_on_error(e);
}
