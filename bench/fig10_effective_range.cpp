// Figure 10 reproduction: theoretical upper bounds f(m, n) of C0/C together
// with experimental boundary points and the least-squares experimental
// boundary, for m = 2 (a), m = 3 (b) and m = 4 (c).
//
// The paper runs ten MD repetitions per density on 36 T3E PEs. Here the
// default sweep uses the occupancy-driven balance simulator (identical DLB
// protocol, scripted concentration — see DESIGN.md) with a reduced PE grid,
// and `--full-md` validates one point per density with the real SPMD MD
// engine.
//
//   ./fig10_effective_range [--pe-side 6] [--steps 500] [--reps 3]
//                           [--full-md] [--md-steps 4000]

#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "theory/bounds.hpp"
#include "theory/effective_range.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

using namespace pcmd;

namespace {

void print_panel(const theory::EffectiveRangeResult& result) {
  std::printf("(m = %d, %d virtual PEs)\n", result.m,
              result.pe_side * result.pe_side);

  // Theoretical upper bound at a grid of n values.
  Table bound({"n", "theory f(m,n)", "experimental boundary fit"});
  for (const double n : {1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0}) {
    std::string fit = "-";
    if (result.experimental_boundary) {
      fit = Table::num(result.experimental_boundary->evaluate(n), 4);
    }
    bound.add_row({Table::num(n, 3),
                   Table::num(theory::upper_bound(result.m, n), 4), fit});
  }
  bound.print(std::cout);

  Table points({"rho*", "points", "boundary step", "n", "C0/C", "err(C0/C)",
                "E/T"});
  for (const auto& d : result.densities) {
    if (!d.mean.found) {
      points.add_row({Table::num(d.density, 3), "0", "-", "-", "-", "-", "-"});
      continue;
    }
    points.add_row({Table::num(d.density, 3),
                    std::to_string(d.points.size()),
                    std::to_string(d.mean.step), Table::num(d.mean.n, 3),
                    Table::num(d.mean.c0_ratio, 4),
                    Table::num(d.c0_stddev, 4),
                    Table::num(d.mean.ratio_to_theory, 3)});
  }
  points.print(std::cout);
  std::printf("mean E/T over found points: %.3f\n\n",
              result.mean_ratio_to_theory);
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const int pe_side = static_cast<int>(cli.get_int("pe-side", 6));
  const int steps = static_cast<int>(cli.get_int("steps", 500));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const bool full_md = cli.get_bool("full-md", false);
  const std::int64_t md_steps = cli.get_int("md-steps", 4000);
  run::require_all_flags_consumed(cli, "fig10_effective_range");

  std::printf("== Figure 10: theoretical upper bounds vs experimental "
              "boundary points (%d virtual PEs) ==\n\n",
              pe_side * pe_side);

  for (const int m : {2, 3, 4}) {
    theory::EffectiveRangeConfig config;
    config.pe_side = pe_side;
    config.m = m;
    config.steps = steps;
    config.reps = reps;
    print_panel(theory::synthetic_effective_range(config));
  }

  if (full_md) {
    std::puts("== full-MD validation (one run per density, m = 2, 9 PEs) ==");
    Table table({"rho*", "boundary step", "n", "C0/C", "E/T"});
    for (const double density : {0.128, 0.256, 0.384, 0.512}) {
      const auto spec = run::RunSpec{}
                            .with_pe_count(9)
                            .with_m(2)
                            .with_density(density)
                            .with_seed(11)
                            .with_steps(md_steps);
      const auto run = run::run_md_trajectory(spec);
      const auto point = theory::extract_boundary_point(
          run.f_max, run.f_min, run.f_avg, run.concentration, spec.system.m);
      if (point.found) {
        table.add_row({Table::num(density, 3), std::to_string(point.step),
                       Table::num(point.n, 3), Table::num(point.c0_ratio, 4),
                       Table::num(point.ratio_to_theory, 3)});
      } else {
        table.add_row({Table::num(density, 3), "-", "-", "-", "-"});
      }
    }
    table.print(std::cout);
  }

  std::puts("paper shape: every experimental boundary point lies below the "
            "theoretical upper bound; the fitted experimental boundary "
            "tracks the bound's 1/(an+b) shape from below.");
  return 0;
} catch (const std::exception& e) {
  return run::exit_on_error(e);
}
