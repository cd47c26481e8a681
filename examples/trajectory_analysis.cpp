// Trajectory analysis: run a simulation, dump an XYZ trajectory, read it
// back, and compute structural observables per frame — the post-processing
// workflow a user of the library would actually run (the .xyz file loads
// directly in VMD/OVITO).
//
//   ./trajectory_analysis [--steps 400] [--frames 8] [--out traj.xyz]
//                         [--density 0.384]

#include "md/rdf.hpp"
#include "md/serial_md.hpp"
#include "md/xyz.hpp"
#include "run/run_spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/cluster.hpp"
#include "workload/gas.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

int main(int argc, char** argv) try {
  using namespace pcmd;
  const Cli cli(argc, argv);
  const auto steps = cli.get_int("steps", 400);
  const auto frames = std::max<std::int64_t>(1, cli.get_int("frames", 8));
  const std::string out = cli.get("out", "");
  const double density = cli.get_double("density", 0.384);
  run::require_all_flags_consumed(cli, "trajectory_analysis");

  const Box box = Box::cubic(15.0);
  const auto n = static_cast<std::int64_t>(density * box.volume());
  Rng rng(11);
  workload::GasConfig gas;
  gas.temperature = 0.722;

  md::SerialMdConfig config;
  config.dt = 0.005;
  config.rescale_temperature = 0.722;
  md::SerialMd sim(box, workload::random_gas(n, box, gas, rng), config);

  std::printf("trajectory analysis: N=%lld, rho*=%.3f, %lld steps, "
              "%lld frames%s%s\n\n",
              static_cast<long long>(n), density,
              static_cast<long long>(steps), static_cast<long long>(frames),
              out.empty() ? "" : ", writing ", out.c_str());

  // 1. Run and dump frames (to a file if requested, else in memory).
  std::stringstream memory;
  std::ofstream file;
  if (!out.empty()) file.open(out);
  std::ostream& sink = out.empty() ? static_cast<std::ostream&>(memory) : file;

  const auto interval = std::max<std::int64_t>(1, steps / frames);
  for (std::int64_t i = 1; i <= steps; ++i) {
    sim.step();
    if (i % interval == 0) {
      md::write_xyz_frame(sink, sim.particles(), box,
                          "step=" + std::to_string(i),
                          /*with_velocities=*/true);
    }
  }

  // 2. Read the trajectory back and analyse each frame.
  std::ifstream file_in;
  if (!out.empty()) file_in.open(out);
  std::istream& source =
      out.empty() ? static_cast<std::istream&>(memory) : file_in;

  Table table({"frame", "g(1.1) peak", "largest cluster", "clusters"});
  md::ParticleVector frame;
  Box frame_box{};
  int index = 0;
  while (md::read_xyz_frame(source, frame, frame_box, true)) {
    ++index;
    md::RadialDistribution rdf(frame_box, 3.5, 35);  // bin width 0.1
    rdf.accumulate(frame);
    const auto g = rdf.g();
    const auto clusters = workload::find_clusters(frame, frame_box, 1.1);
    table.add_row({std::to_string(index), Table::num(g[11], 3),
                   std::to_string(clusters.largest()),
                   std::to_string(clusters.count())});
  }
  table.print(std::cout);
  std::puts("\nthe first-neighbour g(r) peak and the largest cluster both "
            "grow as the supercooled gas condenses — the load-concentration "
            "mechanism behind the paper's Figure 5.");
  return 0;
} catch (const std::exception& e) {
  return pcmd::run::exit_on_error(e);
}
