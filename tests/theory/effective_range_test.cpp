#include "theory/effective_range.hpp"

#include "theory/bounds.hpp"

#include <gtest/gtest.h>

namespace pcmd::theory {
namespace {

EffectiveRangeConfig fast_config(int m = 2) {
  EffectiveRangeConfig config;
  config.pe_side = 3;
  config.m = m;
  config.steps = 400;
  config.reps = 2;
  config.densities = {0.128, 0.256};
  return config;
}

TEST(ExtractBoundaryPoint, NotFoundOnBalancedRun) {
  std::vector<double> f_max(200, 1.02), f_min(200, 0.98), f_avg(200, 1.0);
  Trajectory trajectory(200);
  const auto point =
      extract_boundary_point(f_max, f_min, f_avg, trajectory, 2);
  EXPECT_FALSE(point.found);
}

TEST(ExtractBoundaryPoint, ReadsConcentrationAtBoundary) {
  const int total = 400, onset = 200;
  std::vector<double> f_max, f_min, f_avg;
  Trajectory trajectory;
  for (int i = 0; i < total; ++i) {
    const double spread = i < onset ? 0.05 : 0.05 + 0.05 * (i - onset);
    f_avg.push_back(1.0);
    f_max.push_back(1.0 + spread / 2);
    f_min.push_back(1.0 - spread / 2);
    ConcentrationSample sample;
    sample.step = i;
    sample.n = 1.0 + 0.01 * i;
    sample.c0_ratio = 0.001 * i;
    trajectory.push_back(sample);
  }
  const auto point =
      extract_boundary_point(f_max, f_min, f_avg, trajectory, 2);
  ASSERT_TRUE(point.found);
  EXPECT_GE(point.step, onset);
  // The sampled n and C0/C must come from near the boundary step.
  EXPECT_NEAR(point.n, 1.0 + 0.01 * point.step, 0.15);
  EXPECT_NEAR(point.c0_ratio, 0.001 * point.step, 0.02);
  EXPECT_GT(point.ratio_to_theory, 0.0);
}

TEST(SyntheticEffectiveRange, FindsBoundariesForPaperDensities) {
  const auto result = synthetic_effective_range(fast_config());
  EXPECT_EQ(result.m, 2);
  int found = 0;
  for (const auto& d : result.densities) {
    found += static_cast<int>(d.points.size());
  }
  EXPECT_GT(found, 0) << "no boundary point detected in any run";
}

TEST(SyntheticEffectiveRange, BoundaryPointsRespectTheoreticalBound) {
  // The paper's central claim (Fig. 10): experimental boundary points are
  // always below the theoretical upper bound f(m, n).
  for (const int m : {2, 3}) {
    const auto result = synthetic_effective_range(fast_config(m));
    int positive = 0;
    for (const auto& d : result.densities) {
      for (const auto& p : d.points) {
        EXPECT_LE(p.c0_ratio, upper_bound(m, p.n) * 1.05)
            << "m=" << m << " density=" << d.density;
        EXPECT_GE(p.ratio_to_theory, 0.0);
        EXPECT_LE(p.ratio_to_theory, 1.05);
        if (p.ratio_to_theory > 0.0) ++positive;
      }
    }
    EXPECT_GT(positive, 0) << "m=" << m;
  }
}

TEST(SyntheticEffectiveRange, MeanRatioIsMeaningful) {
  const auto result = synthetic_effective_range(fast_config());
  if (result.mean_ratio_to_theory > 0.0) {
    EXPECT_LE(result.mean_ratio_to_theory, 1.05);
  }
}

TEST(RunMdTrajectory, SmallSmoke) {
  MdTrajectoryConfig config;
  config.spec.pe_count = 9;
  config.spec.m = 2;
  config.spec.density = 0.256;
  config.spec.seed = 5;
  config.steps = 20;
  config.dlb_enabled = true;
  const auto result = run_md_trajectory(config);
  EXPECT_EQ(result.t_step.size(), 20u);
  EXPECT_EQ(result.f_max.size(), 20u);
  EXPECT_EQ(result.concentration.size(), 20u);
  EXPECT_EQ(result.total_cells, 216);
  EXPECT_GT(result.particles, 800);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_GE(result.f_max[i], result.f_min[i]);
    EXPECT_GT(result.t_step[i], 0.0);
  }
}

TEST(RunMdTrajectory, SelfHealingRunsOnItsSpareRank) {
  // The engine must hold the spare pool on top of the P roles, or
  // ParallelMd rejects its rank count. Rank 4 dies in step 3, after the
  // first buddy replication, so the spare takes over its role and the
  // buddy copy brings back its particles.
  MdTrajectoryConfig config;
  config.spec.pe_count = 9;
  config.spec.m = 2;
  config.spec.density = 0.256;
  config.spec.seed = 5;
  config.steps = 6;
  config.faults = sim::FaultPlan::parse("seed=1,crash=4@0.05");
  config.fault_tolerance.reliable = true;
  config.fault_tolerance.healing.enabled = true;
  config.fault_tolerance.healing.buddy_every = 2;
  config.fault_tolerance.healing.spares = 1;
  const auto result = run_md_trajectory(config);
  EXPECT_EQ(result.t_step.size(), 6u);
  EXPECT_EQ(result.failovers_total, 1u);
  EXPECT_EQ(result.final_particles, result.particles);
}

TEST(RunMdTrajectory, DlbOverheadBoundedOnBalancedGas) {
  // Over a short horizon the supercooled gas is still near-uniform, so DLB
  // can only add overhead (messages plus one-column granularity churn — the
  // paper's Fig. 5(b) likewise shows DLB-DDM slightly above DDM while the
  // load is balanced, m = 2 being its weakest case). The overhead must stay
  // bounded; the long-horizon win is exercised by bench/fig5 and the
  // concentrated-load tests.
  MdTrajectoryConfig base;
  base.spec.pe_count = 9;
  base.spec.m = 2;
  base.spec.density = 0.384;
  base.spec.seed = 9;
  base.steps = 120;

  auto with_dlb = base;
  with_dlb.dlb_enabled = true;
  auto without = base;
  without.dlb_enabled = false;

  const auto a = run_md_trajectory(with_dlb);
  const auto b = run_md_trajectory(without);
  double sum_a = 0.0, sum_b = 0.0;
  for (std::size_t i = 100; i < 120; ++i) {
    sum_a += a.t_step[i];
    sum_b += b.t_step[i];
  }
  EXPECT_LE(sum_a, sum_b * 1.35);
}

}  // namespace
}  // namespace pcmd::theory
