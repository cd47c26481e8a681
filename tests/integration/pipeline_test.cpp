// Cross-module integration tests: the full pipeline from paper-system
// generation through the SPMD engine to the Section 4 analysis machinery.
#include "ddm/parallel_md.hpp"
#include "md/serial_md.hpp"
#include "run/trajectory.hpp"
#include "support/test_workloads.hpp"
#include "theory/bounds.hpp"
#include "theory/effective_range.hpp"
#include "workload/cluster.hpp"
#include "workload/paper_system.hpp"

#include <gtest/gtest.h>

namespace pcmd {
namespace {

TEST(Pipeline, PaperSystemThroughParallelEngineAndAnalysis) {
  workload::PaperSystemSpec spec;
  spec.pe_count = 9;
  spec.m = 2;
  spec.density = 0.384;
  spec.seed = 21;

  run::RunSpec run_spec;
  run_spec.system = spec;
  run_spec.steps = 60;
  const auto result = run::run_md_trajectory(run_spec);

  ASSERT_EQ(result.t_step.size(), 60u);
  ASSERT_EQ(result.concentration.size(), 60u);
  // Concentration metrics are well-formed and the bound applies to them.
  for (const auto& sample : result.concentration) {
    EXPECT_GE(sample.n, 1.0);
    EXPECT_GE(sample.c0_ratio, 0.0);
    EXPECT_LE(sample.c0_ratio, 1.0);
    EXPECT_GT(theory::upper_bound(spec.m, sample.n), 0.0);
  }
  // The boundary detector runs cleanly on MD series (found or not).
  const auto point = theory::extract_boundary_point(
      result.f_max, result.f_min, result.f_avg, result.concentration, spec.m);
  if (point.found) {
    EXPECT_GE(point.step, 0);
  }
}

TEST(Pipeline, ParallelRunIsReproducible) {
  const auto spec = run::RunSpec{}
                        .with_pe_count(9)
                        .with_m(2)
                        .with_density(0.256)
                        .with_seed(33)
                        .with_steps(40);
  const auto a = run::run_md_trajectory(spec);
  const auto b = run::run_md_trajectory(spec);
  for (std::size_t i = 0; i < a.t_step.size(); ++i) {
    EXPECT_EQ(a.t_step[i], b.t_step[i]) << "step " << i;
    EXPECT_EQ(a.f_max[i], b.f_max[i]);
    EXPECT_EQ(a.concentration[i].c0_ratio, b.concentration[i].c0_ratio);
  }
  EXPECT_EQ(a.transfers_total, b.transfers_total);
}

TEST(Pipeline, GatheredParticlesFeedClusterAnalysis) {
  workload::PaperSystemSpec spec;
  spec.pe_count = 9;
  spec.m = 2;
  spec.density = 0.256;
  spec.seed = 8;
  Rng rng(spec.seed);
  const auto initial = workload::make_paper_system(spec, rng);

  sim::SeqEngine engine(9);
  ddm::ParallelMdConfig config;
  config.pe_side = 3;
  config.m = 2;
  config.balancer.kind = ddm::BalancerKind::kPermanent;
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine, .box = spec.box(),
                                       .initial = &initial},
                     config);
  md.run(30);

  const auto particles = md.gather_particles();
  const auto clusters = workload::find_clusters(particles, spec.box(), 1.1);
  std::int64_t total = 0;
  for (const auto s : clusters.sizes) total += s;
  EXPECT_EQ(total, static_cast<std::int64_t>(particles.size()));
}

TEST(Pipeline, OversizedTimeStepFailsLoudly) {
  // A particle crossing more than one cell per step would corrupt the
  // neighbour-only migration; the engine must detect it rather than
  // silently produce wrong physics.
  // 16 PEs: on a 4x4 torus, blocks two apart are NOT neighbours (on 3x3
  // every rank neighbours every other, so nothing can be misdelivered).
  workload::PaperSystemSpec spec;
  spec.pe_count = 16;
  spec.m = 2;
  spec.density = 0.128;
  spec.seed = 4;
  Rng rng(spec.seed);
  auto initial = workload::make_paper_system(spec, rng);
  // One particle crossing two blocks (= 2 m cells) in a single step.
  initial[0].velocity = {2.0 * 2 * 2.5 / 0.005, 0.0, 0.0};

  sim::SeqEngine engine(16);
  ddm::ParallelMdConfig config;
  config.pe_side = 4;
  config.m = 2;
  config.dt = 0.005;
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine, .box = spec.box(),
                                       .initial = &initial},
                     config);
  EXPECT_THROW(md.step(), std::logic_error);
}

TEST(Pipeline, ThreadBackendRunsFullMdConfiguration) {
  workload::PaperSystemSpec spec;
  spec.pe_count = 16;
  spec.m = 2;
  spec.density = 0.256;
  spec.seed = 13;
  Rng rng(spec.seed);
  const auto initial = workload::make_paper_system(spec, rng);

  sim::ThreadEngine engine(16);
  ddm::ParallelMdConfig config;
  config.pe_side = 4;
  config.m = 2;
  config.balancer.kind = ddm::BalancerKind::kPermanent;
  config.rescale_temperature = spec.temperature;
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine, .box = spec.box(),
                                       .initial = &initial},
                     config);
  const auto stats = md.run(20);
  EXPECT_EQ(stats.total_particles,
            static_cast<std::int64_t>(initial.size()));
  EXPECT_TRUE(md.check_ownership().ok);
}

TEST(Pipeline, MachineModelChangesVirtualTimeNotPhysics) {
  workload::PaperSystemSpec spec;
  spec.pe_count = 9;
  spec.m = 2;
  spec.density = 0.256;
  spec.seed = 17;
  Rng rng1(spec.seed), rng2(spec.seed);
  const auto initial1 = workload::make_paper_system(spec, rng1);
  const auto initial2 = workload::make_paper_system(spec, rng2);

  sim::SeqEngine t3e(9, sim::MachineModel::t3e());
  sim::SeqEngine ideal(9, sim::MachineModel::ideal_network());
  ddm::ParallelMdConfig config;
  config.pe_side = 3;
  config.m = 2;
  ddm::ParallelMd a(ddm::EngineConfig{.engine = &t3e, .box = spec.box(),
                                      .initial = &initial1},
                    config);
  ddm::ParallelMd b(ddm::EngineConfig{.engine = &ideal, .box = spec.box(),
                                      .initial = &initial2},
                    config);
  const auto sa = a.run(15);
  const auto sb = b.run(15);
  // Identical physics...
  EXPECT_EQ(sa.potential_energy, sb.potential_energy);
  EXPECT_EQ(sa.pair_evaluations, sb.pair_evaluations);
  // ...different virtual time (communication is free on the ideal net).
  EXPECT_GT(sa.t_step, sb.t_step);
}

TEST(Pipeline, DlbWinsOnConcentratedLoadEndToEnd) {
  // End-to-end counterpart of the paper's headline: concentrated load,
  // DLB-DDM completes the same steps in less virtual time than DDM.
  const Box box = Box::cubic(15.0);
  const auto initial = testing::concentrated_lattice(900, box, 0.8, 0.3);

  auto total_time = [&](bool dlb) {
    sim::SeqEngine engine(9);
    ddm::ParallelMdConfig config;
    config.pe_side = 3;
    config.m = 2;
    config.balancer.kind =
        dlb ? ddm::BalancerKind::kPermanent : ddm::BalancerKind::kNone;
    // The lattice is perfectly symmetric, so the cold PEs tie exactly and
    // the strict protocol deterministically parks on an unhelpable PE_fast;
    // fallback mode exists for exactly this (see DlbConfig).
    config.dlb.fallback_to_helpable = true;
    ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine, .box = box,
                                         .initial = &initial},
                       config);
    md.run(40);
    return engine.makespan();
  };
  EXPECT_LT(total_time(true), total_time(false));
}

}  // namespace
}  // namespace pcmd
