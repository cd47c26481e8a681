// Parameterised parity sweep: across decomposition geometries, backends and
// balancer policies, the SPMD pillar engine must reproduce the serial engine
// bitwise (no global reductions feed the physics before the first rescale).
// This is the strongest whole-system correctness property the library
// offers, so it is exercised as a TEST_P grid rather than a single
// configuration.
#include "ddm/balancer.hpp"
#include "ddm/parallel_md.hpp"
#include "md/serial_md.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pcmd::ddm {
namespace {

struct SweepParam {
  int pe_side;
  int m;
  bool dlb;
  bool thread_backend;
  int particles;
  std::uint64_t seed;
  BalancerKind balancer = BalancerKind::kPermanent;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  // Built with ostringstream: GCC 12's -Wrestrict false-positives on
  // chained "literal" + std::to_string temporaries at -O2.
  std::ostringstream os;
  os << "s" << p.pe_side << "m" << p.m << (p.dlb ? "dlb" : "static")
     << (p.thread_backend ? "Thread" : "Seq");
  if (p.balancer != BalancerKind::kPermanent) {
    os << "_" << balancer_name(p.balancer);
  }
  return os.str();
}

class ParitySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ParitySweep, ParallelMatchesSerialBitwise) {
  const auto param = GetParam();
  const int k = param.pe_side * param.m;
  const Box box = Box::cubic(k * 2.5);

  pcmd::Rng rng(param.seed);
  workload::GasConfig gas;
  gas.temperature = 0.722;
  const auto initial = workload::random_gas(param.particles, box, gas, rng);

  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = k;
  md::SerialMd serial(box, initial, serial_config);

  ParallelMdConfig config;
  config.pe_side = param.pe_side;
  config.m = param.m;
  config.dt = 0.004;
  config.dlb.fallback_to_helpable = param.dlb;  // exercise both code paths
  config.balancer.kind = param.dlb ? param.balancer : BalancerKind::kNone;

  std::unique_ptr<sim::Engine> engine;
  if (param.thread_backend) {
    engine = std::make_unique<sim::ThreadEngine>(param.pe_side * param.pe_side);
  } else {
    engine = std::make_unique<sim::SeqEngine>(param.pe_side * param.pe_side);
  }
  ParallelMd parallel(EngineConfig{.engine = engine.get(), .box = box,
                                   .initial = &initial},
                      config);

  const int steps = 12;
  serial.run(steps);
  parallel.run(steps);

  const auto par = parallel.gather_particles();
  const auto& ser = serial.particles();
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    ASSERT_EQ(par[i].id, ser[i].id);
    ASSERT_EQ(par[i].position.x, ser[i].position.x) << "particle " << i;
    ASSERT_EQ(par[i].position.y, ser[i].position.y) << "particle " << i;
    ASSERT_EQ(par[i].position.z, ser[i].position.z) << "particle " << i;
    ASSERT_EQ(par[i].velocity.x, ser[i].velocity.x) << "particle " << i;
  }
  EXPECT_TRUE(parallel.check_ownership().ok);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ParitySweep,
    ::testing::Values(SweepParam{3, 2, false, false, 300, 1},
                      SweepParam{3, 2, true, false, 300, 2},
                      SweepParam{3, 3, true, false, 500, 3},
                      SweepParam{3, 4, true, false, 700, 4},
                      SweepParam{4, 2, true, false, 500, 5},
                      SweepParam{4, 3, true, false, 800, 6},
                      SweepParam{5, 2, true, false, 700, 7},
                      SweepParam{3, 2, true, true, 300, 8},
                      SweepParam{4, 2, true, true, 500, 9}),
    param_name);

// Every non-paper balancer policy preserves serial parity too: decisions
// only relabel ownership, never the physics, so the trajectory must stay
// bitwise identical whatever moves (or doesn't).
INSTANTIATE_TEST_SUITE_P(
    Balancers, ParitySweep,
    ::testing::Values(
        SweepParam{3, 2, true, false, 300, 21, BalancerKind::kRescale},
        SweepParam{4, 2, true, false, 500, 22, BalancerKind::kRescale},
        SweepParam{3, 3, true, false, 500, 23, BalancerKind::kRescale},
        SweepParam{3, 2, true, false, 300, 24, BalancerKind::kDiffusion},
        SweepParam{4, 2, true, false, 500, 25, BalancerKind::kDiffusion},
        SweepParam{3, 3, true, false, 500, 26, BalancerKind::kDiffusion},
        SweepParam{3, 2, true, false, 300, 27, BalancerKind::kNone},
        SweepParam{4, 2, true, false, 500, 28, BalancerKind::kNone},
        SweepParam{3, 2, true, true, 300, 29, BalancerKind::kRescale},
        SweepParam{3, 2, true, true, 300, 30, BalancerKind::kDiffusion},
        SweepParam{3, 2, true, true, 300, 31, BalancerKind::kNone}),
    param_name);

}  // namespace
}  // namespace pcmd::ddm
