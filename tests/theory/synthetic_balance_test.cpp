#include "theory/synthetic_balance.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace pcmd::theory {
namespace {

SyntheticBalanceConfig small_config(bool dlb = true) {
  SyntheticBalanceConfig config;
  config.pe_side = 3;
  config.m = 3;
  config.steps = 150;
  config.workload.particles = 2000;
  config.workload.seed = 11;
  config.balancer =
      dlb ? ddm::BalancerKind::kPermanent : ddm::BalancerKind::kNone;
  return config;
}

TEST(SyntheticBalance, ProducesOneRecordPerStep) {
  const auto result = run_synthetic_balance(small_config());
  EXPECT_EQ(result.records.size(), 150u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].step, static_cast<int>(i) + 1);
  }
}

TEST(SyntheticBalance, SeriesAccessorsMatchRecords) {
  const auto result = run_synthetic_balance(small_config());
  const auto fmax = result.f_max_series();
  ASSERT_EQ(fmax.size(), result.records.size());
  EXPECT_DOUBLE_EQ(fmax[3], result.records[3].f_max);
}

TEST(SyntheticBalance, OrderingOfForceStatistics) {
  for (const auto& r : run_synthetic_balance(small_config()).records) {
    EXPECT_GE(r.f_max, r.f_avg);
    EXPECT_GE(r.f_avg, r.f_min);
    EXPECT_GE(r.f_min, 0.0);
  }
}

TEST(SyntheticBalance, ConcentrationGrowsAlongSchedule) {
  const auto result = run_synthetic_balance(small_config());
  const auto& first = result.records.front().concentration;
  const auto& last = result.records.back().concentration;
  EXPECT_GT(last.c0_ratio, first.c0_ratio);
  EXPECT_GE(last.n, 1.0);
}

TEST(SyntheticBalance, DlbMakesTransfers) {
  const auto result = run_synthetic_balance(small_config(true));
  int transfers = 0;
  for (const auto& r : result.records) transfers += r.transfers;
  EXPECT_GT(transfers, 0);
}

TEST(SyntheticBalance, NoDlbMeansNoTransfers) {
  const auto result = run_synthetic_balance(small_config(false));
  for (const auto& r : result.records) EXPECT_EQ(r.transfers, 0);
}

TEST(SyntheticBalance, DlbReducesImbalanceDuringConcentration) {
  // Compare the mean imbalance ratio over the second half of the run (the
  // concentrating phase) with and without balancing. m = 4 gives DLB its
  // full 9/16 movable fraction; fallback mode avoids the deterministic-tie
  // stall artefact of the scripted times.
  auto mean_imbalance = [](bool dlb) {
    SyntheticBalanceConfig config;
    config.pe_side = 3;
    config.m = 4;
    config.steps = 400;
    config.workload.particles = 6912;  // rho* = 0.256 at K = 12
    config.workload.seed = 11;
    config.balancer =
        dlb ? ddm::BalancerKind::kPermanent : ddm::BalancerKind::kNone;
    config.dlb.fallback_to_helpable = true;
    const auto result = run_synthetic_balance(config);
    double sum = 0.0;
    for (std::size_t i = 200; i < result.records.size(); ++i) {
      const auto& r = result.records[i];
      sum += (r.f_max - r.f_min) / std::max(r.f_avg, 1e-30);
    }
    return sum / (result.records.size() - 200);
  };
  EXPECT_LT(mean_imbalance(true), mean_imbalance(false));
}

TEST(SyntheticBalance, DeterministicForSameSeed) {
  const auto a = run_synthetic_balance(small_config());
  const auto b = run_synthetic_balance(small_config());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].f_max, b.records[i].f_max);
    EXPECT_EQ(a.records[i].transfers, b.records[i].transfers);
  }
}

TEST(SyntheticBalance, StrictFallbackAndOffRunsArePinned) {
  // Committed totals (transfers, summed f_max) of small_config() under the
  // strict paper protocol, with fallback_to_helpable, and with no balancer,
  // as they were when the simulator called core::DlbProtocol itself.
  const std::tuple<bool, bool, int, double> pins[] = {
      {true, false, 404, 4760064.0},
      {true, true, 577, 4570072.0},
      {false, false, 0, 4658426.0},
  };
  for (const auto& [dlb, fallback, transfers, sum_f_max] : pins) {
    auto config = small_config(dlb);
    config.dlb.fallback_to_helpable = fallback;
    int moved = 0;
    double f_max = 0.0;
    for (const auto& r : run_synthetic_balance(config).records) {
      moved += r.transfers;
      f_max += r.f_max;
    }
    EXPECT_EQ(moved, transfers) << dlb << fallback;
    EXPECT_EQ(f_max, sum_f_max) << dlb << fallback;
  }
}

TEST(SyntheticBalance, RejectsBadSteps) {
  auto config = small_config();
  config.steps = 0;
  EXPECT_THROW(run_synthetic_balance(config), std::invalid_argument);
}

TEST(SyntheticBalance, FrozenScheduleKeepsLoadConstant) {
  auto config = small_config();
  config.progress_begin = 0.5;
  config.progress_end = 0.5;
  config.steps = 20;
  const auto result = run_synthetic_balance(config);
  // Same distribution every step: f_avg must not change.
  for (const auto& r : result.records) {
    EXPECT_DOUBLE_EQ(r.f_avg, result.records.front().f_avg);
  }
}

}  // namespace
}  // namespace pcmd::theory
