// Figure 6 reproduction: per-step execution time Tt and the force
// computation times Fmax / Fave / Fmin across PEs, for DDM (a) and DLB-DDM
// (b) at m = 4.
//
// Paper observations to reproduce in shape:
//   * Tt tracks Fmax (PEs synchronise every step);
//   * under DDM the gap Fmax - Fmin widens steadily as the gas condenses;
//   * under DLB-DDM the gap stays small until the concentration exceeds the
//     DLB limit, after which it starts to grow too.
//
//   ./fig6_force_breakdown [--steps 1500] [--interval 125]
//                          [--density 0.384] [--seed 1] [--full]
//                          [--trace out/fig6]
//                          [--faults seed=7,drop=0.05] [--checkpoint-every N]
// (default density 0.384 > paper's 0.256 so condensation develops within
//  the scaled step budget; --full restores paper conditions)
//
// --faults PLAN injects deterministic message faults and routes traffic
// through the reliable channel (physics unchanged; retry counters land in
// the CSV). --checkpoint-every N serializes a checkpoint every N steps.
//
// All numbers come from the per-step metrics stream (obs::StepMetrics), the
// same rows --trace writes as PATH.ddm.csv / PATH.dlb.csv; the Chrome
// trace-event JSONs next to them open in Perfetto.

#include "obs/chrome_trace.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

using namespace pcmd;

namespace {

void print_breakdown(const char* title,
                     const std::vector<obs::StepMetrics>& rows, int interval) {
  std::printf("%s\n", title);
  Table table({"steps", "Tt [s]", "Fmax [s]", "Fave [s]", "Fmin [s]",
               "(Fmax-Fmin)/Fave"});
  const int steps = static_cast<int>(rows.size());
  for (int hi = interval; hi <= steps; hi += interval) {
    double tt = 0, fmax = 0, fave = 0, fmin = 0;
    for (int i = hi - interval; i < hi; ++i) {
      tt += rows[i].t_step;
      fmax += rows[i].force_max;
      fave += rows[i].force_avg;
      fmin += rows[i].force_min;
    }
    const double inv = 1.0 / interval;
    tt *= inv;
    fmax *= inv;
    fave *= inv;
    fmin *= inv;
    table.add_row({std::to_string(hi), Table::num(tt, 4), Table::num(fmax, 4),
                   Table::num(fave, 4), Table::num(fmin, 4),
                   Table::num(fave > 0 ? (fmax - fmin) / fave : 0.0, 3)});
  }
  table.print(std::cout);
  std::printf("\n");
}

void export_run(const std::string& base, obs::TraceCollector& collector,
                std::span<const obs::StepMetrics> rows) {
  if (!obs::write_chrome_trace_file(base + ".json", collector)) {
    std::fprintf(stderr, "trace: failed to write %s.json\n", base.c_str());
  }
  if (!obs::write_csv_file(base + ".csv", rows)) {
    std::fprintf(stderr, "trace: failed to write %s.csv\n", base.c_str());
  }
  collector.clear();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.get_bool("full", false);
  run::RunSpec defaults;
  defaults.system.pe_count = full ? 36 : 9;
  defaults.system.m = 4;
  defaults.system.density = full ? 0.256 : 0.384;
  defaults.system.seed = 1;
  defaults.steps = full ? 10000 : 1500;
  const auto spec = run::parse_run_spec(cli, defaults);
  const int steps = static_cast<int>(spec.steps);
  const int interval =
      static_cast<int>(cli.get_int("interval", std::max(1, steps / 12)));
  run::require_all_flags_consumed(cli, "fig6_force_breakdown");

  const auto& trace = spec.trace_path;
  obs::TraceCollector collector;
  obs::TraceCollector* sink = trace ? &collector : nullptr;

  std::printf("== Figure 6: Tt and Fmax/Fave/Fmin, m = 4, %d virtual PEs "
              "(T3E cost model) ==\n\n",
              spec.system.pe_count);

  const auto ddm = run::run_md_trajectory(
      run::RunSpec(spec).with_balancer(ddm::BalancerKind::kNone), sink);
  print_breakdown("(a) DDM — the Fmax/Fmin gap widens with condensation",
                  ddm.metrics, interval);
  if (trace) export_run(*trace + ".ddm", collector, ddm.metrics);

  // The DLB-DDM side runs the spec's policy; a spec that names none keeps
  // the paper's there, since the DDM side already is that run.
  run::RunSpec dlb_spec = spec;
  if (dlb_spec.balancer.kind == ddm::BalancerKind::kNone) {
    dlb_spec.with_balancer(ddm::BalancerKind::kPermanent);
  }
  const auto dlb = run::run_md_trajectory(dlb_spec, sink);
  print_breakdown("(b) DLB-DDM — the gap stays small inside the DLB limit",
                  dlb.metrics, interval);
  if (trace) export_run(*trace + ".dlb", collector, dlb.metrics);

  if (!spec.fault_plan().empty()) {
    std::printf("fault tolerance: DDM %llu retransmissions, DLB-DDM %llu "
                "retransmissions (all masked; energies identical to a "
                "fault-free run)\n",
                static_cast<unsigned long long>(ddm.retransmissions_total),
                static_cast<unsigned long long>(dlb.retransmissions_total));
  }
  if (spec.checkpoint_every > 0) {
    std::printf("checkpoints: %d taken per run, last %zu bytes\n",
                dlb.checkpoints_taken, dlb.last_checkpoint.size());
  }

  std::puts("paper shape: Tt follows Fmax in both; DLB-DDM holds "
            "Fmax ~ Fave ~ Fmin until concentration exceeds the DLB limit.");
  return 0;
}
