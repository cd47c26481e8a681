// Ablation A2/A3 plus the balancer bake-off.
//
// A2/A3 sweep the DLB design knobs this repo exposes beyond the paper:
//
//  * column selection policy (nearest-to-receiver / most- / least-loaded /
//    lowest-index),
//  * strict PE_fast-only targeting (the literal paper protocol) vs the
//    fallback-to-helpable extension,
//  * hysteresis (minimum relative time gap before a transfer),
//  * decision interval (every step vs every k steps).
//
// Each variant runs the same concentrating workload on the occupancy-driven
// balance simulator; reported are the mean and final normalized force-time
// spread and the number of column transfers (churn).
//
// The bake-off then runs every registered ddm::Balancer policy head-to-head
// on real ParallelMd across three workload shapes — gas (uniform), cluster
// (two dense slabs) and droplet (dense core, sparse halo) — and reports the
// virtual-time makespan, the mean and late-quarter fractional load
// imbalance, and the movement churn, optionally as a JSON table.
//
//   ./ablation_policies [--steps 400] [--m 4] [--pe-side 3]
//                       [--bake-steps 60] [--bake-only 0|1] [--json PATH]

#include "ddm/balancer.hpp"
#include "ddm/parallel_md.hpp"
#include "run/run_spec.hpp"
#include "theory/synthetic_balance.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/gas.hpp"
#include "workload/lattice.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace pcmd;

namespace {

struct Outcome {
  double mean_spread = 0.0;
  double late_spread = 0.0;
  int transfers = 0;
};

Outcome evaluate(const theory::SyntheticBalanceConfig& config) {
  const auto result = theory::run_synthetic_balance(config);
  Outcome outcome;
  const std::size_t count = result.records.size();
  const std::size_t late_from = count - count / 4;
  double late_sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& r = result.records[i];
    const double spread =
        r.f_avg > 0 ? (r.f_max - r.f_min) / r.f_avg : 0.0;
    outcome.mean_spread += spread;
    if (i >= late_from) late_sum += spread;
    outcome.transfers += r.transfers;
  }
  outcome.mean_spread /= static_cast<double>(count);
  outcome.late_spread = late_sum / static_cast<double>(count - late_from);
  return outcome;
}

theory::SyntheticBalanceConfig base_config(const Cli& cli) {
  theory::SyntheticBalanceConfig config;
  config.pe_side = static_cast<int>(cli.get_int("pe-side", 3));
  config.m = static_cast<int>(cli.get_int("m", 4));
  config.steps = static_cast<int>(cli.get_int("steps", 400));
  const int k = config.pe_side * config.m;
  config.workload.particles =
      static_cast<std::int64_t>(0.256 * std::pow(k * config.cutoff, 3));
  config.workload.seed = 5;
  return config;
}

// ---- balancer bake-off on real ParallelMd --------------------------------

// Cold (zero-velocity) simple-cubic lattice filling [origin, origin+extent)
// with n particles, centred so no particle touches a region face. Overlap-
// free by construction — scripted concentrating workloads place particles
// without a minimum separation, which blows up real LJ forces.
md::ParticleVector bake_lattice(std::int64_t n, const Vec3& origin,
                                const Vec3& extent, std::int64_t first_id) {
  const double volume = extent.x * extent.y * extent.z;
  const double spacing = std::cbrt(volume / static_cast<double>(n));
  const int nx = std::max(1, static_cast<int>(extent.x / spacing));
  const int ny = std::max(1, static_cast<int>(extent.y / spacing));
  const int nz =
      static_cast<int>(std::ceil(static_cast<double>(n) / (nx * ny)));
  md::ParticleVector out;
  out.reserve(static_cast<std::size_t>(n));
  std::int64_t id = first_id;
  for (int z = 0; z < nz && id - first_id < n; ++z) {
    for (int y = 0; y < ny && id - first_id < n; ++y) {
      for (int x = 0; x < nx && id - first_id < n; ++x) {
        md::Particle p;
        p.id = id++;
        p.position = {origin.x + (x + 0.5) * extent.x / nx,
                      origin.y + (y + 0.5) * extent.y / ny,
                      origin.z + (z + 0.5) * extent.z / nz};
        out.push_back(p);
      }
    }
  }
  return out;
}

// The three workload shapes of the head-to-head: uniform gas (nothing to
// balance), two dense slabs (a sustained gradient along x), and a dense
// droplet core with a sparse halo (the paper's concentration scenario).
md::ParticleVector bake_workload(const std::string& shape, const Box& box) {
  const double lx = box.length.x;
  if (shape == "gas") {
    pcmd::Rng rng(33);
    workload::GasConfig gas;
    gas.temperature = 0.722;
    return workload::random_gas(400, box, gas, rng);
  }
  if (shape == "cluster") {
    auto all = bake_lattice(240, {0.0, 0.0, 0.0},
                            {0.27 * lx, box.length.y, box.length.z}, 0);
    const auto second =
        bake_lattice(120, {0.5 * lx, 0.0, 0.0},
                     {0.27 * lx, box.length.y, box.length.z}, 240);
    const auto sparse =
        bake_lattice(40, {0.84 * lx, 0.0, 0.0},
                     {0.14 * lx, box.length.y, box.length.z}, 360);
    all.insert(all.end(), second.begin(), second.end());
    all.insert(all.end(), sparse.begin(), sparse.end());
    return all;
  }
  if (shape == "droplet") {
    const double core = lx / 3.0;
    auto all = bake_lattice(140, {core, core, core}, {core, core, core}, 0);
    const auto left =
        bake_lattice(130, {0.0, 0.0, 0.0},
                     {0.27 * lx, box.length.y, box.length.z}, 140);
    const auto right =
        bake_lattice(130, {0.73 * lx, 0.0, 0.0},
                     {0.27 * lx, box.length.y, box.length.z}, 270);
    all.insert(all.end(), left.begin(), left.end());
    all.insert(all.end(), right.begin(), right.end());
    return all;
  }
  throw std::invalid_argument("unknown bake-off workload: " + shape);
}

struct BakeResult {
  std::string policy;
  std::string workload;
  int steps = 0;
  double makespan = 0.0;        // sum of per-step virtual seconds
  double mean_imbalance = 0.0;  // fractional load imbalance, whole run
  double late_imbalance = 0.0;  // last quarter (post-transient quality)
  int transfers = 0;
  int cells_moved = 0;
};

BakeResult run_bakeoff(ddm::BalancerKind kind, const std::string& shape,
                       int steps) {
  // pe_side 3, m 2: K = 6, box edge 15 — big enough to concentrate, small
  // enough for a CI smoke run.
  ddm::ParallelMdConfig config;
  config.pe_side = 3;
  config.m = 2;
  config.cutoff = 2.5;
  config.dt = 0.004;
  config.dlb.fallback_to_helpable = true;
  config.balancer.kind = kind;
  const Box box = Box::cubic(config.pe_side * config.m * config.cutoff);

  sim::ThreadEngine engine(config.pe_side * config.pe_side);
  const auto initial = bake_workload(shape, box);
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine, .box = box,
                                       .initial = &initial},
                     config);

  BakeResult result;
  result.policy = ddm::balancer_name(kind);
  result.workload = shape;
  result.steps = steps;
  const int late_from = steps - steps / 4;
  double late_sum = 0.0;
  for (int i = 0; i < steps; ++i) {
    const auto stats = md.step();
    result.makespan += stats.t_step;
    result.mean_imbalance += stats.imbalance;
    if (i >= late_from) late_sum += stats.imbalance;
    result.transfers += stats.transfers;
    result.cells_moved += stats.cells_moved;
  }
  result.mean_imbalance /= static_cast<double>(steps);
  result.late_imbalance = late_sum / static_cast<double>(steps - late_from);
  return result;
}

void write_bakeoff_json(const std::string& path,
                        const std::vector<BakeResult>& results) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for the JSON table\n", path.c_str());
    return;
  }
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  {\"policy\": \"%s\", \"workload\": \"%s\", "
                  "\"steps\": %d, \"makespan\": %.17g, "
                  "\"mean_imbalance\": %.17g, \"late_imbalance\": %.17g, "
                  "\"transfers\": %d, \"cells_moved\": %d}%s",
                  r.policy.c_str(), r.workload.c_str(), r.steps, r.makespan,
                  r.mean_imbalance, r.late_imbalance, r.transfers,
                  r.cells_moved, i + 1 < results.size() ? ",\n" : "\n");
    os << line;
  }
  os << "]\n";
  std::printf("bake-off JSON written to %s\n", path.c_str());
}

void run_bakeoff_study(int steps, const std::optional<std::string>& json) {
  std::puts("\n== Bake-off: balancer policy x workload (real ParallelMd) ==\n");
  Table table({"policy", "workload", "makespan", "mean imb", "late imb",
               "transfers", "cells moved"});
  std::vector<BakeResult> results;
  for (const auto kind : ddm::all_balancer_kinds()) {
    for (const char* shape : {"gas", "cluster", "droplet"}) {
      const BakeResult r = run_bakeoff(kind, shape, steps);
      table.add_row({r.policy, r.workload, Table::num(r.makespan, 4),
                     Table::num(r.mean_imbalance, 3),
                     Table::num(r.late_imbalance, 3),
                     std::to_string(r.transfers),
                     std::to_string(r.cells_moved)});
      results.push_back(r);
    }
  }
  table.print(std::cout);
  std::puts("(makespan: summed virtual step seconds; imb: fractional load "
            "imbalance Fmax/Fave - 1; late imb: last quarter of the run)");
  if (json) write_bakeoff_json(*json, results);
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const theory::SyntheticBalanceConfig base = base_config(cli);
  const int bake_steps = static_cast<int>(cli.get_int("bake-steps", 60));
  const auto json = cli.get_optional("json");
  const bool bake_only = cli.get_bool("bake-only", false);
  run::require_all_flags_consumed(cli, "ablation_policies");
  if (bake_only) {
    run_bakeoff_study(bake_steps, json);
    return 0;
  }

  std::puts("== Ablation A2: selection policy x targeting mode ==\n");
  {
    Table table({"policy", "targeting", "mean spread", "late spread",
                 "transfers"});
    struct PolicyCase {
      core::SelectionPolicy policy;
      const char* name;
    };
    const PolicyCase policies[] = {
        {core::SelectionPolicy::kNearestToReceiver, "nearest-to-receiver"},
        {core::SelectionPolicy::kMostLoaded, "most-loaded"},
        {core::SelectionPolicy::kLeastLoaded, "least-loaded"},
        {core::SelectionPolicy::kLowestIndex, "lowest-index"},
    };
    for (const auto& p : policies) {
      for (const bool fallback : {false, true}) {
        auto config = base;
        config.dlb.policy = p.policy;
        config.dlb.fallback_to_helpable = fallback;
        const auto outcome = evaluate(config);
        table.add_row({p.name, fallback ? "fallback" : "strict(paper)",
                       Table::num(outcome.mean_spread, 3),
                       Table::num(outcome.late_spread, 3),
                       std::to_string(outcome.transfers)});
      }
    }
    table.print(std::cout);
  }

  std::puts("\n== Ablation A2a: overshoot prevention ==\n");
  {
    Table table({"avoid overshoot", "mean spread", "late spread",
                 "transfers"});
    for (const bool avoid : {true, false}) {
      auto config = base;
      config.dlb.fallback_to_helpable = true;
      config.dlb.avoid_overshoot = avoid;
      const auto outcome = evaluate(config);
      table.add_row({avoid ? "on (default)" : "off (literal paper)",
                     Table::num(outcome.mean_spread, 3),
                     Table::num(outcome.late_spread, 3),
                     std::to_string(outcome.transfers)});
    }
    table.print(std::cout);
    std::puts("(off reproduces the literal protocol: any positive gap moves "
              "a whole column, which churns on balanced load; hardware "
              "timing noise hides this on the paper's T3E)");
  }

  std::puts("\n== Ablation A2b: hysteresis (minimum relative gap) ==\n");
  {
    Table table({"min gap", "mean spread", "late spread", "transfers"});
    for (const double gap : {0.0, 0.02, 0.05, 0.1, 0.25, 0.5}) {
      auto config = base;
      config.dlb.fallback_to_helpable = true;
      config.dlb.min_relative_gap = gap;
      const auto outcome = evaluate(config);
      table.add_row({Table::num(gap, 3), Table::num(outcome.mean_spread, 3),
                     Table::num(outcome.late_spread, 3),
                     std::to_string(outcome.transfers)});
    }
    table.print(std::cout);
  }

  std::puts("\n== Ablation A3: decision interval (paper: every step) ==\n");
  {
    Table table({"interval", "mean spread", "late spread", "transfers"});
    for (const int interval : {1, 2, 5, 10, 25, 100}) {
      auto config = base;
      config.dlb.fallback_to_helpable = true;
      config.dlb.interval = interval;
      const auto outcome = evaluate(config);
      table.add_row({std::to_string(interval),
                     Table::num(outcome.mean_spread, 3),
                     Table::num(outcome.late_spread, 3),
                     std::to_string(outcome.transfers)});
    }
    table.print(std::cout);
  }

  std::puts("\nno-DLB baseline:");
  {
    auto config = base;
    config.balancer = ddm::BalancerKind::kNone;
    const auto outcome = evaluate(config);
    std::printf("  mean spread %.3f, late spread %.3f, transfers %d\n",
                outcome.mean_spread, outcome.late_spread, outcome.transfers);
  }

  run_bakeoff_study(bake_steps, json);
  return 0;
} catch (const std::exception& e) {
  return run::exit_on_error(e);
}
