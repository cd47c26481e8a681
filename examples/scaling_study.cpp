// Scaling study: how the square-pillar decomposition behaves as the virtual
// machine grows, and why the paper prefers it over plane and cube domains
// for mid-size systems (Section 2.2).
//
// Part 1 runs a weak-scaling sweep (fixed density, growing PE grid) on the
// virtual T3E and reports per-step time and parallel efficiency. Part 2
// prints the analytic communication profiles of the three domain shapes.
//
//   ./scaling_study [--steps 100] [--density 0.256] [--m 2]
//                   [--trace out/scaling]
//                   [--faults seed=7,drop=0.05] [--checkpoint-every 50]
//                   [--buddy-every 10] [--spares 1]
//                   [--degrade rank=4,at=0.05] [--degrade-factor 6]
//
// --trace PATH writes one Chrome trace-event JSON (PATH.p9.json, PATH.p16.json,
// ... — open in Perfetto) and one per-step metrics CSV (PATH.p9.csv, ...)
// per PE-grid size; the --degrade mode's 3x3 run writes PATH.p9.json and
// PATH.p9.csv.
//
// --faults PLAN injects deterministic message faults into the sweep and
// routes all traffic through the reliable channel (physics unchanged).
// --checkpoint-every N serializes a full checkpoint every N steps.
//
// --buddy-every N turns on the self-healing recovery layer: every N steps
// each rank ships its permanent-cell state to its torus-neighbour buddy, so
// crashes in --faults plans are survived losslessly (rollback + replay).
// --spares S adds S idle spare ranks that take over dead ranks' roles.
// Recovery totals are printed per grid size as RECOVERY-COUNTERS lines.
//
// --degrade rank=K,at=T switches to a dedicated mode: a 3x3 run of the
// --balancer policy (the paper's DLB by default) in which rank K's compute
// slows down by --degrade-factor (default 6x) from virtual time T on. The
// before/after Fmax/Fave/Fmin table shows the DLB shifting permanent cells
// off the slow PE until the imbalance is absorbed.

#include "ddm/comm_volume.hpp"
#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>
#include <string>

namespace {

// The spec of one PE-grid size; its trace, if any, goes to PATH.pN.
pcmd::run::RunSpec grid_spec(pcmd::run::RunSpec spec, int pe_count) {
  spec.system.pe_count = pe_count;
  if (spec.trace_path) *spec.trace_path += ".p" + std::to_string(pe_count);
  return spec;
}

// The --degrade mode: DLB absorbing a permanently slowed rank. The degrade
// spec itself ("rank=K,at=T") is parsed by the shared run::RunSpec parser;
// the driver rejects a rank the 3x3 machine lacks.
int run_degrade_mode(const pcmd::run::RunSpec& base) {
  using namespace pcmd;
  const run::RunSpec spec = grid_spec(base, 9);
  const run::DegradeSpec& degrade = *spec.degrade;
  // fault_plan() folds the degrade stall into any --faults plan.
  run::MdRun run(spec);

  std::printf("== degrade mode: rank %d slows %.1fx at t=%g s (3x3, m=%d, "
              "balancer %s) ==\n",
              degrade.rank, degrade.factor, degrade.at, spec.system.m,
              ddm::balancer_name(spec.balancer.kind));

  // Classify each step by when it started relative to the stall onset: the
  // "impact" bucket (first 30 steps after T) takes the hit, then the DLB
  // walks the slow rank's columns away and "absorbed" settles back down.
  struct Bucket {
    double fmax = 0.0, fave = 0.0, fmin = 0.0;
    int transfers = 0;
    int steps = 0;
  } before, impact, absorbed;
  int steps_after = 0;
  for (std::int64_t i = 0; i < spec.steps; ++i) {
    const double start = run.engine().makespan();
    const auto stats = run.step();
    Bucket* b = &before;
    if (start >= degrade.at) {
      ++steps_after;
      b = steps_after <= 30 ? &impact : &absorbed;
    }
    b->fmax += stats.force_max;
    b->fave += stats.force_avg;
    b->fmin += stats.force_min;
    b->transfers += stats.transfers;
    b->steps += 1;
  }

  Table table({"phase", "steps", "Fmax [s]", "Fave [s]", "Fmin [s]",
               "(Fmax-Fmin)/Fave", "DLB transfers"});
  auto add = [&](const char* name, const Bucket& b) {
    if (b.steps == 0) return;
    const double inv = 1.0 / b.steps;
    const double fmax = b.fmax * inv, fave = b.fave * inv, fmin = b.fmin * inv;
    table.add_row({name, std::to_string(b.steps), Table::num(fmax, 4),
                   Table::num(fave, 4), Table::num(fmin, 4),
                   Table::num(fave > 0 ? (fmax - fmin) / fave : 0.0, 3),
                   std::to_string(b.transfers)});
  };
  add("before", before);
  add("impact (first 30)", impact);
  add("absorbed (rest)", absorbed);
  table.print(std::cout);
  const auto fc = run.engine().fault_injector()->counters();
  std::printf("\nstall stretched %llu compute intervals by %.3f virtual "
              "seconds total.\n",
              static_cast<unsigned long long>(fc.stalled_advances),
              fc.stall_seconds);
  std::puts("paper analogue: a T3E PE running hot/throttled — the permanent-"
            "cell DLB drains its columns instead of letting Fmax track the "
            "slow PE forever.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace pcmd;
  const Cli cli(argc, argv);
  run::RunSpec defaults;
  defaults.system.m = 2;
  defaults.system.density = 0.256;
  defaults.system.seed = 42;
  defaults.steps = 100;
  const bool m_given = cli.has("m");
  run::RunSpec base = run::parse_run_spec(cli, defaults);
  run::require_all_flags_consumed(cli, "scaling_study");
  if (base.degrade) {
    // Default to m = 4 here (movable fraction 9/16): at m = 2 only 1/4 of a
    // PE's columns may move, which caps how much load the DLB can drain off
    // the degraded rank (the paper's "weak DLB capability" regime).
    if (!m_given) base.system.m = 4;
    base.steps = std::max<std::int64_t>(base.steps, 300);
    return run_degrade_mode(base);
  }
  const bool healing = base.healing_enabled();
  const std::int64_t steps = base.steps;

  std::puts("== weak scaling: fixed density, growing PE grid ==");
  Table scaling({"PEs", "N", "cells", "time/step [s]", "efficiency",
                 "msgs/step/PE"});
  for (const int side : {3, 4, 5, 6}) {
    const run::RunSpec case_spec = grid_spec(base, side * side);
    const workload::PaperSystemSpec& spec = case_spec.system;
    run::MdRun run(case_spec);
    const double before = run.engine().makespan();
    for (std::int64_t i = 0; i < steps; ++i) run.step();
    if (run.checkpoints_taken() > 0) {
      std::printf("p%d: %d checkpoints, last %zu bytes\n", spec.pe_count,
                  run.checkpoints_taken(), run.last_checkpoint().size());
    }
    if (healing) {
      const auto& rc = run.md().recovery_counters();
      std::printf("RECOVERY-COUNTERS p%d: checkpoint_bytes=%llu "
                  "generations=%llu rollbacks=%llu failovers=%llu "
                  "roles_retired=%llu declared_dead=%llu "
                  "particles_recovered=%llu epoch=%d\n",
                  spec.pe_count,
                  static_cast<unsigned long long>(rc.checkpoint_bytes),
                  static_cast<unsigned long long>(rc.generations),
                  static_cast<unsigned long long>(rc.rollbacks),
                  static_cast<unsigned long long>(rc.failovers),
                  static_cast<unsigned long long>(rc.roles_retired),
                  static_cast<unsigned long long>(rc.declared_dead),
                  static_cast<unsigned long long>(rc.particles_recovered),
                  run.md().membership().epoch());
    }
    const double per_step = (run.engine().makespan() - before) / steps;
    const auto report = obs::machine_report(run.engine());
    scaling.add_row(
        {std::to_string(spec.pe_count), std::to_string(run.particles()),
         std::to_string(spec.total_cells()), Table::num(per_step, 4),
         Table::num(report.efficiency(), 3),
         Table::num(static_cast<double>(report.total_messages) /
                        (steps * spec.pe_count),
                    3)});
  }
  scaling.print(std::cout);

  std::puts("\n== domain shapes (paper Fig. 2): analytic per-PE per-step "
            "communication ==");
  Table shapes({"shape", "PEs", "neighbours", "halo cells", "surface ratio",
                "T3E comm [ms]"});
  const auto t3e = sim::MachineModel::t3e();
  // Per-halo-cell transfer time: ~4 particles/cell at rho* = 0.256, 32 B per
  // halo record.
  const double per_cell = 4.0 * 32.0 / t3e.bandwidth;
  for (const int k : {24}) {
    struct Case {
      ddm::DomainShape shape;
      int pe;
    };
    for (const auto& c : {Case{ddm::DomainShape::kPlane, 24},
                          Case{ddm::DomainShape::kSquarePillar, 36},
                          Case{ddm::DomainShape::kCube, 27}}) {
      const auto profile = ddm::comm_profile(c.shape, k, c.pe);
      shapes.add_row(
          {ddm::to_string(c.shape), std::to_string(c.pe),
           std::to_string(profile.neighbor_count),
           Table::num(profile.halo_cells, 5),
           Table::num(profile.surface_ratio, 3),
           Table::num(1e3 * profile.comm_seconds(t3e.msg_latency, per_cell),
                      3)});
    }
  }
  shapes.print(std::cout);
  std::puts("\nsquare pillar keeps 8 neighbours with moderate halo volume — "
            "the mid-size sweet spot the paper builds DLB on.");
  return 0;
} catch (const std::exception& e) {
  return pcmd::run::exit_on_error(e);
}
