// The committed performance gate.
//
// Measures host throughput of the three execution tiers and writes the
// scoreboard to BENCH_perf.json:
//
//   serial_md_pps      md::SerialMd step loop, particles*steps per second
//   seq_engine_pps     ddm::ParallelMd, chaos-free fig5 config, SeqEngine
//   thread_engine_pps  ddm::SlabMd on ThreadEngine with 8 ranks
//   fig5_wall_seconds  wall time of the seq fig5 run (lower is better)
//
// Every sample is a full fresh run; each metric keeps the best of --repeats
// samples, because wall time on a shared box is one-sided noise: a run can
// only be slowed down, so the fastest sample is the closest estimate of the
// machine's capability.
//
//   ./perf_gate [--repeats 3] [--out BENCH_perf.json]
//               [--check BASELINE.json] [--tolerance 0.15]
//               [shared run flags — see run/run_spec.hpp]
//
// --check compares the fresh measurement against a committed baseline and
// exits non-zero when any throughput metric drops more than --tolerance
// (relative), or the fig5 wall time grows by more than it — the CI perf job
// runs exactly this against the BENCH_perf.json in the repository root.
// That file also carries keys owned by other gates (serve_gate's
// serve_jobs_per_sec); only the four keys above are checked here, and
// --merge 1 preserves the others when regenerating the baseline.

#include "scoreboard.hpp"

#include "ddm/parallel_md.hpp"
#include "ddm/slab_md.hpp"
#include "md/serial_md.hpp"
#include "run/run_spec.hpp"
#include "sim/comm.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"
#include "workload/paper_system.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace pcmd;

namespace {

double time_seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

// ---- the three measured tiers ---------------------------------------------

// SerialMd: the pure force/integrate hot path, no virtual machine.
double run_serial(std::int64_t n, std::int64_t steps) {
  const double volume = static_cast<double>(n) / 0.256;
  const Box box = Box::cubic(std::cbrt(volume));
  Rng rng(42);
  workload::GasConfig gas;
  gas.min_separation = 0.8;
  auto initial = workload::random_gas(n, box, gas, rng);
  md::SerialMdConfig config;
  config.dt = 0.004;
  md::SerialMd sim(box, initial, config);
  return time_seconds([&] {
    for (std::int64_t i = 0; i < steps; ++i) sim.step();
  });
}

// ParallelMd in the chaos-free fig5 configuration on the chosen engine.
double run_pillar(const run::RunSpec& spec, sim::Engine& engine) {
  Rng rng(spec.system.seed);
  const auto initial = workload::make_paper_system(spec.system, rng);
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine,
                                       .box = spec.system.box(),
                                       .initial = &initial},
                     spec.parallel_config());
  return time_seconds([&] {
    for (std::int64_t i = 0; i < spec.steps; ++i) md.step();
  });
}

// SlabMd on 8 ranks: the "8 ranks" ThreadEngine configuration, run on
// min(8, cores) threads.
double run_slab8(sim::Engine& engine, std::int64_t n, std::int64_t steps) {
  const Box box = Box::cubic(40.0);
  Rng rng(7);
  workload::GasConfig gas;
  auto initial = workload::random_gas(n, box, gas, rng);
  ddm::SlabMdConfig config;
  config.pe_count = 8;
  config.cells_per_axis = 16;
  config.dt = 0.004;
  config.shift_enabled = true;
  ddm::SlabMd md(engine, box, initial, config);
  return time_seconds([&] {
    for (std::int64_t i = 0; i < steps; ++i) md.step();
  });
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  run::RunSpec defaults;
  defaults.system.pe_count = 9;
  defaults.system.m = 4;
  defaults.system.density = 0.384;
  defaults.system.seed = 1;
  defaults.steps = 60;
  const auto spec = run::parse_run_spec(cli, defaults);
  const int repeats =
      static_cast<int>(cli.get_int("repeats", 3));
  const std::string out_path = cli.get("out", "BENCH_perf.json");
  const auto check_path = cli.get_optional("check");
  const double tolerance = cli.get_double("tolerance", 0.15);
  const bool merge = cli.get_bool("merge", false);
  run::require_all_flags_consumed(cli, "perf_gate");

  const std::int64_t serial_n = 4000;
  const std::int64_t serial_steps = 25;
  const std::int64_t slab_n = 4000;
  const std::int64_t slab_steps = 40;
  const auto pillar_n = static_cast<std::int64_t>([&] {
    Rng rng(spec.system.seed);
    return workload::make_paper_system(spec.system, rng).size();
  }());

  double best_serial = 1e300, best_seq = 1e300, best_thr = 1e300;
  for (int r = 0; r < repeats; ++r) {
    best_serial = std::min(best_serial, run_serial(serial_n, serial_steps));
    {
      sim::SeqEngine engine(spec.system.pe_count);
      best_seq = std::min(best_seq, run_pillar(spec, engine));
    }
    {
      sim::ThreadEngine engine(8);
      best_thr = std::min(best_thr, run_slab8(engine, slab_n, slab_steps));
    }
    std::printf("repeat %d/%d: serial %.3fs  seq %.3fs  thread %.3fs\n",
                r + 1, repeats, best_serial, best_seq, best_thr);
  }

  bench::Scoreboard board;
  board["serial_md_pps"] =
      static_cast<double>(serial_n * serial_steps) / best_serial;
  board["seq_engine_pps"] =
      static_cast<double>(pillar_n * spec.steps) / best_seq;
  board["thread_engine_pps"] =
      static_cast<double>(slab_n * slab_steps) / best_thr;
  board["fig5_wall_seconds"] = best_seq;

  std::printf("\nscoreboard (best of %d):\n", repeats);
  for (const auto& [key, value] : board) {
    std::printf("  %-20s %14.1f\n", key.c_str(), value);
  }
  bench::write_scoreboard(out_path, board, merge);
  std::printf("wrote %s\n", out_path.c_str());

  if (check_path) {
    const auto baseline = bench::read_scoreboard(*check_path);
    std::printf("\nchecking against %s (tolerance %.0f%%):\n",
                check_path->c_str(), 100.0 * tolerance);
    const int failures = bench::check_against(board, baseline, tolerance);
    if (failures > 0) {
      std::printf("perf gate FAILED: %d metric(s) regressed beyond %.0f%%\n",
                  failures, 100.0 * tolerance);
      return 1;
    }
    std::puts("perf gate passed.");
  }
  return 0;
}
