// Droplet formation: the physical workload that motivates the paper.
//
// A Lennard-Jones gas below its boiling point (T* = 0.722) condenses:
// clusters nucleate and grow, cells empty out, and the computational load
// concentrates on the PEs whose domains hold the droplets. This example runs
// the same supercooled system with plain DDM and with DLB-DDM, tracking
// cluster statistics and the force-time imbalance — a miniature of the
// paper's Figures 5 and 6.
//
//   ./droplet_formation [--steps 600] [--density 0.384] [--m 2] [--seed 3]

#include "ddm/parallel_md.hpp"
#include "md/rdf.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/cluster.hpp"
#include "workload/paper_system.hpp"

#include <cstdio>
#include <iostream>

int main(int argc, char** argv) {
  using namespace pcmd;
  const Cli cli(argc, argv);

  workload::PaperSystemSpec spec;
  spec.pe_count = 9;
  spec.m = static_cast<int>(cli.get_int("m", 2));
  spec.density = cli.get_double("density", 0.256);
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  const auto steps = cli.get_int("steps", 600);

  Rng rng(spec.seed);
  const auto initial = workload::make_paper_system(spec, rng);
  std::printf("droplet formation: N=%zu particles, rho*=%.3f, T*=%.3f, "
              "%lld steps, DDM vs DLB-DDM on 9 virtual PEs\n\n",
              initial.size(), spec.density, spec.temperature,
              static_cast<long long>(steps));

  ddm::ParallelMdConfig base;
  base.pe_side = spec.pe_side();
  base.m = spec.m;
  base.dt = spec.dt;
  base.rescale_temperature = spec.temperature;
  base.rescale_interval = spec.rescale_interval;

  sim::ThreadEngine ddm_engine(spec.pe_count);
  sim::ThreadEngine dlb_engine(spec.pe_count);
  auto dlb_config = base;
  dlb_config.balancer.kind = ddm::BalancerKind::kPermanent;
  ddm::ParallelMd ddm_md(ddm::EngineConfig{.engine = &ddm_engine,
                                           .box = spec.box(),
                                           .initial = &initial},
                         base);
  ddm::ParallelMd dlb_md(ddm::EngineConfig{.engine = &dlb_engine,
                                           .box = spec.box(),
                                           .initial = &initial},
                         dlb_config);

  Table table({"step", "largest cluster", "clusters", "empty cells",
               "DDM imb", "DLB imb", "transfers"});
  int transfers = 0;
  for (std::int64_t i = 1; i <= steps; ++i) {
    const auto a = ddm_md.step();
    const auto b = dlb_md.step();
    transfers += b.transfers;
    if (i % 100 == 0 || i == steps) {
      // Cluster analysis on the gathered DLB state (both runs share the
      // same physics to rounding).
      const auto particles = dlb_md.gather_particles();
      // Bond distance 1.1 sigma: tight enough that the dilute gas does not
      // percolate into one spurious "cluster".
      const auto clusters =
          workload::find_clusters(particles, spec.box(), 1.1);
      auto imbalance = [](const ddm::ParallelStepStats& s) {
        return s.force_avg > 0.0 ? (s.force_max - s.force_min) / s.force_avg
                                 : 0.0;
      };
      table.add_row({std::to_string(i), std::to_string(clusters.largest()),
                     std::to_string(clusters.count()),
                     std::to_string(b.empty_cells),
                     Table::num(imbalance(a), 3), Table::num(imbalance(b), 3),
                     std::to_string(transfers)});
    }
  }
  table.print(std::cout);

  // Structure check: condensation grows the first-neighbour g(r) peak.
  md::RadialDistribution rdf(spec.box(), 3.5, 14);
  rdf.accumulate(dlb_md.gather_particles());
  const auto g = rdf.g();
  std::printf("\ng(r) after %lld steps:", static_cast<long long>(steps));
  for (int b = 2; b < rdf.bins(); b += 2) {
    std::printf("  g(%.2f)=%.2f", rdf.radius(b), g[b]);
  }
  std::printf("\n(a growing peak near r = 1.12 is the droplet signature)\n");

  std::printf("\nvirtual seconds for the whole run: DDM %.3f s, DLB-DDM %.3f "
              "s\n",
              ddm_engine.makespan(), dlb_engine.makespan());
  std::puts("(condensation concentrates load; DLB-DDM should stay flatter "
            "as clusters grow — run with --steps 3000+ to see it clearly)");
  return 0;
}
