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

}  // namespace
}  // namespace pcmd::theory
