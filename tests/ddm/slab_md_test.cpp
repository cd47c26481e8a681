#include "ddm/slab_md.hpp"

#include "md/serial_md.hpp"
#include "sim/checker.hpp"
#include "sim/fault.hpp"
#include "support/test_workloads.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace pcmd::ddm {
namespace {

SlabMdConfig small_config(bool shift = false) {
  SlabMdConfig config;
  config.pe_count = 4;
  config.cells_per_axis = 8;
  config.cutoff = 2.5;
  config.dt = 0.004;
  config.shift_enabled = shift;
  return config;
}

Box small_box() { return Box::cubic(20.0); }  // 8 cells of edge 2.5

md::ParticleVector small_gas(int n = 400, std::uint64_t seed = 3) {
  pcmd::Rng rng(seed);
  workload::GasConfig gas;
  gas.temperature = 0.722;
  return workload::random_gas(n, small_box(), gas, rng);
}

TEST(SlabMd, RejectsBadConfigs) {
  {
    sim::SeqEngine engine(2);
    SlabMdConfig config = small_config();
    config.pe_count = 2;
    EXPECT_THROW(SlabMd(engine, small_box(), small_gas(10), config),
                 std::invalid_argument);
  }
  {
    sim::SeqEngine engine(3);
    EXPECT_THROW(SlabMd(engine, small_box(), small_gas(10), small_config()),
                 std::invalid_argument);  // engine size != pe_count
  }
  {
    sim::SeqEngine engine(10);
    SlabMdConfig config = small_config();
    config.pe_count = 10;  // more PEs than the 8 layers
    EXPECT_THROW(SlabMd(engine, small_box(), small_gas(10), config),
                 std::invalid_argument);
  }
}

TEST(SlabMd, InitialPartitionEven) {
  sim::SeqEngine engine(4);
  SlabMd slab(engine, small_box(), small_gas(), small_config());
  for (int r = 0; r < 4; ++r) {
    const auto [lo, hi] = slab.slab_range(r);
    EXPECT_EQ(hi - lo, 2) << "rank " << r;
  }
  EXPECT_TRUE(slab.check_partition());
}

TEST(SlabMd, ParticleCountConserved) {
  sim::SeqEngine engine(4);
  SlabMd slab(engine, small_box(), small_gas(), small_config(true));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(slab.step().total_particles, 400);
  }
  EXPECT_EQ(slab.gather_particles().size(), 400u);
}

TEST(SlabMd, MatchesSerialBitwiseWithoutThermostat) {
  auto initial = small_gas();
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = 8;
  md::SerialMd serial(small_box(), initial, serial_config);

  sim::SeqEngine engine(4);
  SlabMd slab(engine, small_box(), initial, small_config(false));

  serial.run(20);
  slab.run(20);
  const auto par = slab.gather_particles();
  const auto& ser = serial.particles();
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].position.x, ser[i].position.x) << "particle " << i;
    EXPECT_EQ(par[i].velocity.y, ser[i].velocity.y);
  }
}

TEST(SlabMd, MatchesSerialBitwiseWithShiftingEnabled) {
  auto initial = small_gas(400, 7);
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = 8;
  md::SerialMd serial(small_box(), initial, serial_config);

  sim::SeqEngine engine(4);
  SlabMd slab(engine, small_box(), initial, small_config(true));
  serial.run(20);
  slab.run(20);
  const auto par = slab.gather_particles();
  const auto& ser = serial.particles();
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].position.x, ser[i].position.x) << "particle " << i;
  }
  EXPECT_TRUE(slab.check_partition());
}

TEST(SlabMd, PartitionInvariantsHoldUnderShifting) {
  // A strongly left-concentrated state forces boundary shifts.
  const auto initial =
      pcmd::testing::concentrated_lattice(600, small_box(), 0.75, 0.25);

  sim::SeqEngine engine(4);
  SlabMdConfig config = small_config(true);
  SlabMd slab(engine, small_box(), initial, config);
  int shifts = 0;
  for (int i = 0; i < 30; ++i) {
    shifts += slab.step().shifts;
    std::string error;
    ASSERT_TRUE(slab.check_partition(&error)) << "step " << i << ": " << error;
  }
  EXPECT_GT(shifts, 0);
}

TEST(SlabMd, ShiftingReducesImbalanceOnConcentratedLoad) {
  const auto initial =
      pcmd::testing::concentrated_lattice(800, small_box(), 0.8, 0.3);

  auto imbalance = [&](bool shift) {
    sim::SeqEngine engine(4);
    SlabMdConfig config = small_config(shift);
    SlabMd slab(engine, small_box(), initial, config);
    SlabStepStats stats{};
    for (int i = 0; i < 25; ++i) stats = slab.step();
    return (stats.force_max - stats.force_min) /
           std::max(stats.force_avg, 1e-30);
  };
  EXPECT_LT(imbalance(true), imbalance(false));
}

TEST(SlabMd, ShedsLayersOffAStalledRank) {
  // Rank 1 computes six times slower for the whole run. Its busy time must
  // be the clock movement the stall caused, not the cost it asked for, or
  // the boundary shift sees a normal rank and never moves a layer off it.
  sim::FaultPlan::Stall stall;
  stall.rank = 1;
  stall.from = 0.0;
  stall.until = 1e9;
  stall.factor = 6.0;
  sim::FaultPlan plan;
  plan.stalls.push_back(stall);
  const auto initial = small_gas(600);

  struct Outcome {
    int rank1_layers = 0;
    int shifts = 0;
    double seconds = 0.0;
  };
  auto run = [&](bool shift) {
    sim::FaultInjector injector(plan);
    sim::SeqEngine engine(4);
    engine.set_fault_injector(&injector);
    SlabMd slab(engine, small_box(), initial, small_config(shift));
    Outcome outcome;
    for (int i = 0; i < 60; ++i) {
      const SlabStepStats stats = slab.step();
      outcome.shifts += stats.shifts;
      outcome.seconds += stats.t_step;
      EXPECT_EQ(stats.total_particles, 600);
    }
    EXPECT_TRUE(slab.check_partition());
    const auto [lo, hi] = slab.slab_range(1);
    outcome.rank1_layers = hi - lo;
    engine.set_fault_injector(nullptr);
    return outcome;
  };

  const Outcome fixed = run(false);
  const Outcome shifting = run(true);
  EXPECT_EQ(fixed.rank1_layers, 2);
  EXPECT_GT(shifting.shifts, 0);
  EXPECT_EQ(shifting.rank1_layers, 1);  // the stalled rank shed a layer
  EXPECT_LT(shifting.seconds, 0.75 * fixed.seconds);
}

TEST(SlabMd, StaticSlabsNeverShift) {
  sim::SeqEngine engine(4);
  SlabMd slab(engine, small_box(), small_gas(), small_config(false));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(slab.step().shifts, 0);
  }
  for (int r = 0; r < 4; ++r) {
    const auto [lo, hi] = slab.slab_range(r);
    EXPECT_EQ(hi - lo, 2);
  }
}

TEST(SlabMd, ProtocolAndHappensBeforeCleanUnderShifting) {
  // The whole slab protocol — info exchange, boundary shifts with layer
  // hand-off, migration, halo — under the protocol checker's happens-before
  // detector, on both engines. Every cross-rank touch point is stamped
  // (PCMD_HB_ACCESS), so any unordered access would surface here; a
  // concentrated load guarantees real shifts are exercised.
  const auto initial =
      pcmd::testing::concentrated_lattice(600, small_box(), 0.75, 0.25);
  for (const bool threaded : {false, true}) {
    std::unique_ptr<sim::Engine> engine;
    if (threaded) {
      engine = std::make_unique<sim::ThreadEngine>(4);
    } else {
      engine = std::make_unique<sim::SeqEngine>(4);
    }
    sim::ProtocolChecker checker;
    engine->set_checker(&checker);  // before construction: init halo counts
    SlabMd slab(*engine, small_box(), initial, small_config(true));
    int shifts = 0;
    for (int i = 0; i < 12; ++i) shifts += slab.step().shifts;
    EXPECT_GT(shifts, 0);  // layer hand-off stamps were actually exercised
    const auto report = checker.report();
    EXPECT_TRUE(report.ok()) << (threaded ? "thread: " : "seq: ")
                             << report.to_string();
    engine->set_checker(nullptr);
  }
}

TEST(SlabMd, ForceStatisticsOrdered) {
  sim::SeqEngine engine(4);
  SlabMd slab(engine, small_box(), small_gas(), small_config(true));
  const auto stats = slab.step();
  EXPECT_GE(stats.t_step, stats.force_max);
  EXPECT_GE(stats.force_max, stats.force_avg);
  EXPECT_GE(stats.force_avg, stats.force_min);
}

TEST(SlabMd, WorksOnThreadBackend) {
  auto initial = small_gas(300, 9);
  sim::SeqEngine seq(4);
  sim::ThreadEngine thread(4);
  SlabMd a(seq, small_box(), initial, small_config(true));
  SlabMd b(thread, small_box(), initial, small_config(true));
  for (int i = 0; i < 10; ++i) {
    const auto sa = a.step();
    const auto sb = b.step();
    ASSERT_EQ(sa.potential_energy, sb.potential_energy);
    ASSERT_EQ(sa.t_step, sb.t_step);
  }
}

}  // namespace
}  // namespace pcmd::ddm
