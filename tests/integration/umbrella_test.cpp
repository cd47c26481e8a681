// Compile-checks the umbrella header and a minimal whole-stack program
// written against it (what a downstream user's first program looks like).
#include "pcmd.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, WholeStackSmoke) {
  using namespace pcmd;

  workload::PaperSystemSpec spec;
  spec.pe_count = 9;
  spec.m = 2;
  spec.density = 0.256;
  spec.seed = 1;
  Rng rng(spec.seed);
  const auto initial = workload::make_paper_system(spec, rng);

  sim::SeqEngine engine(spec.pe_count, sim::MachineModel::t3e());
  ddm::ParallelMdConfig config;
  config.pe_side = spec.pe_side();
  config.m = spec.m;
  config.balancer.kind = ddm::BalancerKind::kPermanent;
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine, .box = spec.box(),
                                       .initial = &initial},
                     config);
  const auto stats = md.run(5);

  EXPECT_EQ(stats.total_particles,
            static_cast<std::int64_t>(initial.size()));
  EXPECT_GT(theory::upper_bound(spec.m, 1.5), 0.0);
  EXPECT_TRUE(md.check_ownership().ok);
  EXPECT_GT(obs::machine_report(engine).makespan, 0.0);
}

}  // namespace
