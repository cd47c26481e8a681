// The ledger's summary statistics on hand-computed vectors.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pcmd::ledger {
namespace {

TEST(LedgerStats, NearestRankPercentile) {
  const std::vector<double> xs = {35, 20, 15, 50, 40};
  EXPECT_EQ(percentile(xs, 5), 15);
  EXPECT_EQ(percentile(xs, 30), 20);
  EXPECT_EQ(percentile(xs, 40), 20);
  EXPECT_EQ(percentile(xs, 50), 35);
  EXPECT_EQ(percentile(xs, 100), 50);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(LedgerStats, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(LedgerStats, HighestPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_percentile_with(1000), 99);
  EXPECT_EQ(highest_percentile_with(10000), 99.9);
  EXPECT_EQ(highest_percentile_with(100), 90);
  EXPECT_EQ(highest_percentile_with(20), 50);
  EXPECT_EQ(highest_percentile_with(15), 0);
  EXPECT_EQ(highest_percentile_with(0), 0);
}

TEST(LedgerStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  const auto small = quartiles({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(small[0], 1.25);
  EXPECT_DOUBLE_EQ(small[1], 2.5);
  EXPECT_DOUBLE_EQ(small[2], 3.75);
  const auto one = quartiles({7});
  EXPECT_EQ(one[0], 7);
  EXPECT_EQ(one[2], 7);
}

TEST(LedgerStats, LptSchedulesLongestFirst) {
  // LPT's textbook miss: {3,3},{2,2,2} fits in 6 but LPT needs 7.
  EXPECT_EQ(lpt_makespan({2, 3, 2, 3, 2}, 2), 7);
  EXPECT_EQ(lpt_makespan({1, 2, 3}, 1), 6);
  EXPECT_EQ(lpt_makespan({1, 2, 3}, 8), 3);
  EXPECT_EQ(lpt_makespan({}, 4), 0);
}

TEST(LedgerStats, PearsonR) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(pearson_r(x, std::vector<double>{2, 4, 6, 8, 10}), 1.0);
  EXPECT_DOUBLE_EQ(pearson_r(x, std::vector<double>{5, 4, 3, 2, 1}), -1.0);
  // Means 2 and 2: sxy = 1, sxx = syy = 2, so r = 1/2.
  EXPECT_DOUBLE_EQ(pearson_r(std::vector<double>{1, 2, 3},
                             std::vector<double>{1, 3, 2}),
                   0.5);
  EXPECT_EQ(pearson_r(x, std::vector<double>{3, 3, 3, 3, 3}), 0.0);
}

}  // namespace
}  // namespace pcmd::ledger
