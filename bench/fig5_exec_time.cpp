// Figure 5 reproduction: execution time per time step as a function of the
// time step, DDM vs DLB-DDM.
//
// Paper setup: 36 PEs of a Cray T3E; (a) m = 4, N = 59319, C = 13824;
// (b) m = 2, N = 8000, C = 1728; thousands of time steps of a supercooled
// gas (T* = 0.722, rho* = 0.256). DDM's time per step climbs as particles
// concentrate; DLB-DDM stays nearly flat until the DLB limit.
//
// Default here: the same physics scaled to 9 virtual PEs, rho* = 0.384
// (denser than the paper's 0.256 so condensation — and with it the DDM
// slowdown — develops within the scaled step budget), and fewer steps so
// the bench finishes in about 22 s on a 4-vCPU VM, its virtual PEs spread
// over the host's cores (ThreadEngine). `--full` switches to the paper's
// 36-PE, rho* = 0.256, 10^4-step configuration (a long run).
//
//   ./fig5_exec_time [--steps 1500] [--interval 125] [--density 0.384]
//                    [--seed 1] [--full] [--trace out/fig5]
//                    [--faults seed=7,drop=0.05] [--checkpoint-every 100]
//
// --trace PATH writes, per case and per run, a Chrome trace-event JSON
// (PATH.m4.ddm.json, ...; open in Perfetto) and the per-step metrics CSV
// (PATH.m4.ddm.csv, ...).
//
// --faults PLAN injects deterministic message faults (sim::FaultPlan
// grammar) and routes all traffic through the reliable channel; the run's
// physics is unchanged, only clocks and retry counters move. The fault and
// retry counters land in the metrics CSV. --checkpoint-every N serializes a
// full checkpoint every N steps and reports its size.

#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

using namespace pcmd;

namespace {

void report_ft(const run::RunSpec& spec, const char* label,
               const run::MdTrajectoryResult& run) {
  if (!spec.fault_plan().empty()) {
    std::printf("  [%s] retransmissions %llu, recv timeouts %llu\n", label,
                static_cast<unsigned long long>(run.retransmissions_total),
                static_cast<unsigned long long>(run.recv_timeouts_total));
  }
  if (spec.checkpoint_every > 0) {
    std::printf("  [%s] %d checkpoints, last %zu bytes\n", label,
                run.checkpoints_taken, run.last_checkpoint.size());
  }
}

// Runs the case's DDM and DLB-DDM trajectories. `suffix` distinguishes the
// per-case trace files (PATH.m4.ddm.json, ...).
run::DdmDlbRuns run_case(run::RunSpec spec, const std::string& suffix) {
  if (spec.trace_path) *spec.trace_path += suffix;
  auto runs = run::run_ddm_and_dlb(spec);
  report_ft(spec, "ddm", runs.ddm);
  report_ft(spec, "dlb", runs.dlb);
  return runs;
}

double window_mean(const std::vector<obs::StepMetrics>& rows, int lo, int hi) {
  double sum = 0.0;
  for (int i = lo; i < hi; ++i) sum += rows[i].t_step;
  return sum / std::max(1, hi - lo);
}

void print_case(const char* title, const run::DdmDlbRuns& runs,
                int interval) {
  const auto& ddm = runs.ddm.metrics;
  const auto& dlb = runs.dlb.metrics;
  std::printf("%s\n", title);
  Table table({"steps", "DDM time/step [s]", "DLB-DDM time/step [s]",
               "DDM/DLB"});
  const int steps = static_cast<int>(ddm.size());
  for (int hi = interval; hi <= steps; hi += interval) {
    const double a = window_mean(ddm, hi - interval, hi);
    const double b = window_mean(dlb, hi - interval, hi);
    table.add_row({std::to_string(hi), Table::num(a, 4), Table::num(b, 4),
                   Table::num(b > 0 ? a / b : 0.0, 3)});
  }
  table.print(std::cout);
  double total_a = 0.0, total_b = 0.0;
  for (const auto& row : ddm) total_a += row.t_step;
  for (const auto& row : dlb) total_b += row.t_step;
  std::printf("whole run: DDM %.2f s, DLB-DDM %.2f s (speedup %.2fx)\n\n",
              total_a, total_b, total_b > 0 ? total_a / total_b : 0.0);
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const bool full = cli.get_bool("full", false);
  run::RunSpec defaults;
  defaults.system.pe_count = full ? 36 : 9;
  defaults.system.density = full ? 0.256 : 0.384;
  defaults.system.seed = 1;
  defaults.steps = full ? 10000 : 1500;
  const auto base = run::parse_run_spec(cli, defaults);
  const int steps = static_cast<int>(base.steps);
  const int interval =
      static_cast<int>(cli.get_int("interval", std::max(1, steps / 12)));
  run::require_all_flags_consumed(cli, "fig5_exec_time");

  std::printf("== Figure 5: time per step, DDM vs DLB-DDM (%d virtual PEs, "
              "T3E cost model, T*=0.722, rho*=%.3f) ==\n\n",
              base.system.pe_count, base.system.density);

  {
    const auto result = run_case(run::RunSpec(base).with_m(4), ".m4");
    print_case("(a) m = 4  — movable fraction 9/16, strong DLB capability",
               result, interval);
  }
  {
    // m = 2 steps are ~7x cheaper; run a longer horizon so the condensation
    // (and the DDM slowdown) is equally visible.
    const auto result = run_case(
        run::RunSpec(base).with_m(2).with_steps(full ? steps : 2 * steps),
        ".m2");
    print_case("(b) m = 2  — movable fraction 1/4, weak DLB capability",
               result, full ? interval : 2 * interval);
  }
  std::puts("paper shape: DDM's per-step time climbs as the gas condenses; "
            "DLB-DDM stays nearly flat, more clearly at m = 4 than m = 2.");
  return 0;
} catch (const std::exception& e) {
  return run::exit_on_error(e);
}
