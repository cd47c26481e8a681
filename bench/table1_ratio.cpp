// Table 1 reproduction: the ratio E/T of the experimental boundary to the
// theoretical upper bound of DLB, for m = 2/3/4 on 16/36/64 PEs.
//
// Paper claims to check in shape:
//   * E/T < 1 everywhere (experiments never beat the bound),
//   * E/T barely depends on the number of PEs for fixed m,
//   * E/T grows with m (the experimental boundary approaches the bound).
//
//   ./table1_ratio [--steps 550] [--reps 2] [--full]

#include "run/run_spec.hpp"
#include "theory/effective_range.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

using namespace pcmd;

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const bool full = cli.get_bool("full", false);
  // m = 4 holds out longest; the horizon must reach past its DLB limit or
  // its cell reports "-" (no boundary found = balancing never broke).
  const int steps = static_cast<int>(cli.get_int("steps", full ? 800 : 550));
  const int reps = static_cast<int>(cli.get_int("reps", full ? 3 : 2));
  run::require_all_flags_consumed(cli, "table1_ratio");

  std::puts("== Table 1: ratio E/T of experimental boundary to theoretical "
            "upper bound ==\n");

  const std::vector<int> pe_sides = {4, 6, 8};  // 16 / 36 / 64 PEs
  const std::vector<int> ms = {2, 3, 4};

  Table table({"m", "E/T 16PEs", "E/T 36PEs", "E/T 64PEs"});
  std::vector<RunningStats> per_pe(pe_sides.size());

  for (const int m : ms) {
    std::vector<std::string> row = {std::to_string(m)};
    for (std::size_t k = 0; k < pe_sides.size(); ++k) {
      theory::EffectiveRangeConfig config;
      config.pe_side = pe_sides[k];
      config.m = m;
      config.steps = steps;
      config.reps = reps;
      if (!full) {
        config.densities = {0.128, 0.256};  // --full sweeps all four
      }
      const auto result = theory::synthetic_effective_range(config);
      if (result.mean_ratio_to_theory > 0.0) {
        row.push_back(Table::num(result.mean_ratio_to_theory, 3));
        per_pe[k].add(result.mean_ratio_to_theory);
      } else {
        row.push_back("-");
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::puts("\npaper shape: the three values in one row are close to each "
            "other (E/T does not depend strongly on the PE count), all are "
            "below 1, and the paper reports the ratio growing with m.");
  for (std::size_t k = 0; k < pe_sides.size(); ++k) {
    if (per_pe[k].count() > 0) {
      std::printf("P = %2d PEs: mean E/T %.3f (stddev %.3f)\n",
                  pe_sides[k] * pe_sides[k], per_pe[k].mean(),
                  per_pe[k].stddev());
    }
  }
  return 0;
} catch (const std::exception& e) {
  return run::exit_on_error(e);
}
