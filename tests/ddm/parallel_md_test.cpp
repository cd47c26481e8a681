#include "ddm/parallel_md.hpp"

#include "md/serial_md.hpp"
#include "support/test_workloads.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

namespace pcmd::ddm {
namespace {

// Standard small configuration: 9 PEs (3x3), m = 2 -> K = 6, box 15^3.
ParallelMdConfig small_config(bool dlb = false) {
  ParallelMdConfig config;
  config.pe_side = 3;
  config.m = 2;
  config.cutoff = 2.5;
  config.dt = 0.004;
  config.balancer.kind = dlb ? BalancerKind::kPermanent : BalancerKind::kNone;
  return config;
}

Box small_box() { return Box::cubic(15.0); }

md::ParticleVector small_gas(int n = 300, std::uint64_t seed = 11) {
  pcmd::Rng rng(seed);
  workload::GasConfig gas;
  gas.temperature = 0.722;
  return workload::random_gas(n, small_box(), gas, rng);
}

TEST(ParallelMd, RejectsMismatchedEngineSize) {
  sim::SeqEngine engine(4);
  const auto initial = small_gas(10);
  EXPECT_THROW(ParallelMd(EngineConfig{.engine = &engine, .box = small_box(),
                                       .initial = &initial},
                          small_config()),
               std::invalid_argument);
}

TEST(ParallelMd, RejectsBoxSmallerThanCutoffCells) {
  sim::SeqEngine engine(9);
  auto config = small_config();
  // Box edge 12 / K=6 cells -> cell edge 2.0 < cutoff 2.5.
  const Box box = Box::cubic(12.0);
  pcmd::Rng rng(1);
  workload::GasConfig gas;
  auto particles = workload::random_gas(10, box, gas, rng);
  EXPECT_THROW(ParallelMd(EngineConfig{.engine = &engine, .box = box,
                                       .initial = &particles},
                          config),
               std::invalid_argument);
}

TEST(ParallelMd, ParticleCountConserved) {
  sim::SeqEngine engine(9, sim::MachineModel::t3e());
  const auto initial = small_gas();
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config());
  for (int i = 0; i < 30; ++i) {
    const auto stats = pmd.step();
    EXPECT_EQ(stats.total_particles, 300);
  }
  EXPECT_EQ(pmd.gather_particles().size(), 300u);
}

TEST(ParallelMd, ParticleIdsPreserved) {
  sim::SeqEngine engine(9);
  const auto initial = small_gas();
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config());
  pmd.run(20);
  const auto particles = pmd.gather_particles();
  for (std::size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(particles[i].id, static_cast<std::int64_t>(i));
  }
}

TEST(ParallelMd, MatchesSerialBitwiseWithoutThermostat) {
  // Same force kernel, same iteration order, no global reductions feeding
  // back into the physics -> the parallel trajectory must be *bitwise*
  // identical to the serial one.
  auto initial = small_gas();
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = 6;
  md::SerialMd serial(small_box(), initial, serial_config);

  sim::SeqEngine engine(9);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config());

  serial.run(25);
  pmd.run(25);

  const auto par = pmd.gather_particles();
  const auto& ser = serial.particles();
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    ASSERT_EQ(par[i].id, ser[i].id);
    EXPECT_EQ(par[i].position.x, ser[i].position.x) << "particle " << i;
    EXPECT_EQ(par[i].position.y, ser[i].position.y);
    EXPECT_EQ(par[i].position.z, ser[i].position.z);
    EXPECT_EQ(par[i].velocity.x, ser[i].velocity.x);
  }
}

TEST(ParallelMd, MatchesSerialBitwiseWithDlbEnabled) {
  // Moving columns between PEs must not change the physics at all.
  auto initial = small_gas(300, 23);
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = 6;
  md::SerialMd serial(small_box(), initial, serial_config);

  sim::SeqEngine engine(9);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config(/*dlb=*/true));

  serial.run(25);
  pmd.run(25);

  const auto par = pmd.gather_particles();
  const auto& ser = serial.particles();
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].position.x, ser[i].position.x) << "particle " << i;
    EXPECT_EQ(par[i].velocity.z, ser[i].velocity.z);
  }
}

TEST(ParallelMd, MatchesSerialThroughThermostatToTolerance) {
  auto initial = small_gas(300, 31);
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = 6;
  serial_config.rescale_temperature = 0.722;
  serial_config.rescale_interval = 50;
  md::SerialMd serial(small_box(), initial, serial_config);

  auto config = small_config();
  config.rescale_temperature = 0.722;
  config.rescale_interval = 50;
  sim::SeqEngine engine(9);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 config);

  serial.run(60);  // crosses the step-50 rescale
  pmd.run(60);

  const auto par = pmd.gather_particles();
  const auto& ser = serial.particles();
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_NEAR(par[i].position.x, ser[i].position.x, 1e-7) << i;
    EXPECT_NEAR(par[i].position.y, ser[i].position.y, 1e-7);
    EXPECT_NEAR(par[i].position.z, ser[i].position.z, 1e-7);
  }
}

TEST(ParallelMd, EnergyAndStatsMatchSerial) {
  auto initial = small_gas(200, 41);
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cells_per_axis = 6;
  md::SerialMd serial(small_box(), initial, serial_config);

  sim::SeqEngine engine(9);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config());

  for (int i = 0; i < 10; ++i) {
    const auto s = serial.step();
    const auto p = pmd.step();
    EXPECT_NEAR(p.potential_energy, s.potential_energy,
                1e-9 * std::max(1.0, std::abs(s.potential_energy)));
    EXPECT_NEAR(p.kinetic_energy, s.kinetic_energy, 1e-9);
    EXPECT_EQ(p.pair_evaluations, s.pair_evaluations);
  }
}

TEST(ParallelMd, OwnershipInvariantsHoldUnderDlb) {
  sim::SeqEngine engine(9);
  const auto initial = small_gas(400, 7);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config(/*dlb=*/true));
  for (int i = 0; i < 40; ++i) {
    pmd.step();
    const auto report = pmd.check_ownership();
    ASSERT_TRUE(report.ok) << "step " << i << ": "
                           << report.violations.front();
  }
}

TEST(ParallelMd, StaticOwnershipWithoutDlb) {
  sim::SeqEngine engine(9);
  const auto initial = small_gas();
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config(false));
  pmd.run(10);
  for (int r = 0; r < 9; ++r) {
    const auto& map = pmd.column_map_view(r);
    for (int col = 0; col < pmd.layout().num_columns(); ++col) {
      EXPECT_EQ(map.owner(col), pmd.layout().home_rank(col));
    }
  }
}

TEST(ParallelMd, DlbMovesColumnsTowardConcentratedLoad) {
  // Concentrated lattice: the hot PEs shed movable columns within a few
  // steps. (A lattice rather than the scripted blob: overlap-free, so the
  // real forces stay bounded.)
  const auto initial =
      pcmd::testing::concentrated_lattice(600, small_box(), 0.8, 0.3);

  sim::SeqEngine engine(9);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config(/*dlb=*/true));
  int transfers = 0;
  for (int i = 0; i < 30; ++i) transfers += pmd.step().transfers;
  EXPECT_GT(transfers, 0);
  EXPECT_TRUE(pmd.check_ownership().ok);
}

TEST(ParallelMd, DlbReducesForceImbalance) {
  const auto initial =
      pcmd::testing::concentrated_lattice(800, small_box(), 0.8, 0.3);

  auto imbalance_after = [&](bool dlb) {
    sim::SeqEngine engine(9);
    auto config = small_config(dlb);
    ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                                .initial = &initial},
                   config);
    ParallelStepStats stats{};
    for (int i = 0; i < 30; ++i) stats = pmd.step();
    return (stats.force_max - stats.force_min) /
           std::max(stats.force_avg, 1e-30);
  };

  const double without = imbalance_after(false);
  const double with = imbalance_after(true);
  EXPECT_LT(with, without);
}

TEST(ParallelMd, StepTimeTracksSlowestPe) {
  sim::SeqEngine engine(9);
  const auto initial = small_gas();
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config());
  const auto stats = pmd.step();
  // Tt >= Fmax: the step cannot finish before the slowest force computation.
  EXPECT_GE(stats.t_step, stats.force_max);
  EXPECT_GE(stats.force_max, stats.force_avg);
  EXPECT_GE(stats.force_avg, stats.force_min);
  EXPECT_GT(stats.force_min, 0.0);
}

TEST(ParallelMd, ConcentrationStatsRanges) {
  sim::SeqEngine engine(9);
  const auto initial = small_gas(150, 17);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = small_box(),
                              .initial = &initial},
                 small_config());
  const auto stats = pmd.step();
  const int cells_per_pe = 2 * 2 * 6;  // m^2 columns x K cells
  EXPECT_EQ(stats.max_domain_cells, cells_per_pe);  // no DLB: all equal
  EXPECT_GE(stats.max_domain_empty, 0);
  EXPECT_LE(stats.max_domain_empty, cells_per_pe);
  EXPECT_LE(stats.max_empty_cells, cells_per_pe);
  EXPECT_GE(stats.empty_cells, 0);
  EXPECT_LE(stats.empty_cells, pmd.total_cells());
}

TEST(ParallelMd, SeqAndThreadBackendsBitwiseIdentical) {
  auto initial = small_gas(250, 19);
  sim::SeqEngine seq(9);
  sim::ThreadEngine thread(9);
  ParallelMd a(EngineConfig{.engine = &seq, .box = small_box(),
                            .initial = &initial},
               small_config(true));
  ParallelMd b(EngineConfig{.engine = &thread, .box = small_box(),
                            .initial = &initial},
               small_config(true));
  ParallelStepStats sa{}, sb{};
  for (int i = 0; i < 15; ++i) {
    sa = a.step();
    sb = b.step();
    ASSERT_EQ(sa.potential_energy, sb.potential_energy) << "step " << i;
    ASSERT_EQ(sa.t_step, sb.t_step);
    ASSERT_EQ(sa.force_max, sb.force_max);
    ASSERT_EQ(sa.transfers, sb.transfers);
  }
  const auto pa = a.gather_particles();
  const auto pb = b.gather_particles();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].position.x, pb[i].position.x);
    EXPECT_EQ(pa[i].velocity.y, pb[i].velocity.y);
  }
  for (int r = 0; r < 9; ++r) {
    EXPECT_EQ(seq.clock(r), thread.clock(r));
  }
}

TEST(ParallelMd, LargerConfigurationRuns) {
  // 16 PEs, m = 3 -> K = 12, box 30^3.
  ParallelMdConfig config;
  config.pe_side = 4;
  config.m = 3;
  config.balancer.kind = BalancerKind::kPermanent;
  const Box box = Box::cubic(30.0);
  pcmd::Rng rng(2);
  workload::GasConfig gas;
  auto particles = workload::random_gas(800, box, gas, rng);
  sim::SeqEngine engine(16);
  ParallelMd pmd(EngineConfig{.engine = &engine, .box = box,
                              .initial = &particles},
                 config);
  const auto stats = pmd.run(10);
  EXPECT_EQ(stats.total_particles, 800);
  EXPECT_TRUE(pmd.check_ownership().ok);
}

}  // namespace
}  // namespace pcmd::ddm
