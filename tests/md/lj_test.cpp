#include "md/lj.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pcmd::md {
namespace {

TEST(LennardJones, ZeroAtSigmaTimesTwoToSixth) {
  const LennardJones lj(2.5);
  // V(r) = 0 at r = 1 (reduced sigma).
  EXPECT_NEAR(lj.potential_r2(1.0), 0.0, 1e-12);
}

TEST(LennardJones, MinimumAtTwoToOneSixth) {
  const LennardJones lj(2.5);
  const double rmin = std::pow(2.0, 1.0 / 6.0);
  // V(rmin) = -1 (reduced epsilon), F(rmin) = 0.
  EXPECT_NEAR(lj.potential_r2(rmin * rmin), -1.0, 1e-12);
  EXPECT_NEAR(lj.force_over_r(rmin * rmin), 0.0, 1e-10);
}

TEST(LennardJones, RepulsiveInsideMinimum) {
  const LennardJones lj(2.5);
  // force_over_r > 0 means the force on i points away from j.
  EXPECT_GT(lj.force_over_r(0.9 * 0.9), 0.0);
}

TEST(LennardJones, AttractiveOutsideMinimum) {
  const LennardJones lj(2.5);
  EXPECT_LT(lj.force_over_r(1.5 * 1.5), 0.0);
}

TEST(LennardJones, ZeroBeyondCutoff) {
  const LennardJones lj(2.5);
  EXPECT_DOUBLE_EQ(lj.potential_r2(2.5 * 2.5), 0.0);
  EXPECT_DOUBLE_EQ(lj.force_over_r(2.6 * 2.6), 0.0);
  EXPECT_DOUBLE_EQ(lj.potential_r2(100.0), 0.0);
}

TEST(LennardJones, ForceMatchesPotentialGradient) {
  const LennardJones lj(3.5);
  // Numerical derivative check: F(r) = -dV/dr, so force_over_r = -V'(r)/r.
  for (double r : {0.95, 1.0, 1.12, 1.5, 2.0, 3.0}) {
    const double h = 1e-6;
    const double vp = lj.potential_r2((r + h) * (r + h));
    const double vm = lj.potential_r2((r - h) * (r - h));
    const double dvdr = (vp - vm) / (2 * h);
    EXPECT_NEAR(lj.force_over_r(r * r), -dvdr / r, 1e-4 * std::abs(dvdr / r) + 1e-8)
        << "r=" << r;
  }
}

TEST(LennardJones, UnshiftedHasKnownCutoffValue) {
  const LennardJones lj(2.5);
  // Plain truncation: just inside the cut-off the potential is still
  // V(2.5) = 4 (2.5^-12 - 2.5^-6) ~ -0.016316891136, not 0.
  const double just_inside = 2.5 - 1e-12;
  EXPECT_NEAR(lj.potential_r2(just_inside * just_inside), -0.016316891136,
              1e-9);
}

TEST(LennardJones, RejectsNonPositiveCutoff) {
  EXPECT_THROW(LennardJones(0.0), std::invalid_argument);
  EXPECT_THROW(LennardJones(-1.0), std::invalid_argument);
}

TEST(LennardJones, CutoffAccessors) {
  const LennardJones lj(2.5);
  EXPECT_DOUBLE_EQ(lj.cutoff(), 2.5);
  EXPECT_DOUBLE_EQ(lj.cutoff2(), 6.25);
}

}  // namespace
}  // namespace pcmd::md
