// Ablation: permanent-cell DLB (square pillar) vs the prior-work baseline —
// 1-D slab decomposition with dynamic boundary shifting (Brugé & Fornili,
// Kohring; the paper's refs [4][5]).
//
// The paper's argument (Section 1): 1-D methods are hard to extend to 3-D —
// the slab halo is a full K x K layer per side and does not shrink with P,
// and balancing moves entire layers, a much coarser granularity than the
// pillar's columns. This bench runs both engines on the same concentrating
// supercooled gas and on the same PE budget, and prints time-per-step
// windows plus communication volume.
//
//   ./ablation_baseline_1d [--steps 600] [--density 0.384] [--pe 9]

#include "ddm/slab_md.hpp"
#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/paper_system.hpp"

#include <cstdio>
#include <iostream>

using namespace pcmd;

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const int steps = static_cast<int>(cli.get_int("steps", 600));
  const double density = cli.get_double("density", 0.384);
  const int pe = static_cast<int>(cli.get_int("pe", 9));
  run::require_all_flags_consumed(cli, "ablation_baseline_1d");

  // m = 4 gives K = 12 cell layers: enough for a 9-PE slab ring (the slab
  // needs at least one layer per PE — its granularity problem in a
  // nutshell) and a strong pillar-DLB configuration.
  run::RunSpec pillar_spec;
  pillar_spec.with_pe_count(pe).with_m(4).with_density(density).with_seed(5);
  const workload::PaperSystemSpec& spec = pillar_spec.system;
  Rng rng(spec.seed);
  const auto initial = workload::make_paper_system(spec, rng);

  std::printf("== 1-D baseline vs permanent-cell DLB: %d PEs, N=%zu, "
              "rho*=%.3f, %d steps ==\n\n",
              pe, initial.size(), density, steps);

  // Square pillar with the paper's DLB.
  run::MdRun pillar(pillar_spec);

  // Slab ring, static and shifting.
  auto make_slab = [&](bool shift) {
    ddm::SlabMdConfig config;
    config.pe_count = pe;
    config.cells_per_axis = spec.cells_per_axis();
    config.dt = spec.dt;
    config.rescale_temperature = spec.temperature;
    config.shift_enabled = shift;
    return config;
  };
  sim::ThreadEngine slab_engine(pe);
  ddm::SlabMd slab(slab_engine, spec.box(), initial, make_slab(true));
  sim::ThreadEngine static_engine(pe);
  ddm::SlabMd slab_static(static_engine, spec.box(), initial,
                          make_slab(false));

  const int interval = std::max(1, steps / 9);
  Table table({"steps", "pillar+DLB Tt [s]", "slab+shift Tt [s]",
               "slab static Tt [s]"});
  double acc_p = 0, acc_s = 0, acc_t = 0;
  for (int i = 1; i <= steps; ++i) {
    acc_p += pillar.step().t_step;
    acc_s += slab.step().t_step;
    acc_t += slab_static.step().t_step;
    if (i % interval == 0) {
      table.add_row({std::to_string(i), Table::num(acc_p / interval, 4),
                     Table::num(acc_s / interval, 4),
                     Table::num(acc_t / interval, 4)});
      acc_p = acc_s = acc_t = 0;
    }
  }
  table.print(std::cout);

  Table comm({"engine", "virtual total [s]", "messages", "bytes"});
  auto add = [&](const char* name, const sim::Engine& engine) {
    const auto report = obs::machine_report(engine);
    comm.add_row({name, Table::num(report.makespan, 4),
                  std::to_string(report.total_messages),
                  std::to_string(report.total_bytes)});
  };
  add("pillar + DLB", pillar.engine());
  add("slab + shift", slab_engine);
  add("slab static", static_engine);
  std::printf("\n");
  comm.print(std::cout);

  std::puts("\nreading: at equal PE count the slab pays a far larger halo "
            "(its K x K faces do not shrink with P) and balances at whole-"
            "layer granularity; the pillar's column-level DLB tracks the "
            "condensation more closely — the reason the paper builds on "
            "square pillars.");
  return 0;
} catch (const std::exception& e) {
  return run::exit_on_error(e);
}
