// Golden regression battery: a short, fully deterministic ParallelMd run
// (DLB on, fixed seed) checked against committed golden values for the
// physics (total energy), the virtual-machine makespan, and the load-balance
// spread, plus the same kind of pin on the 1-D SlabMd baseline (virtual
// time, energy, boundary shifts and wire traffic). The runs are bitwise
// reproducible on both engines (see the engine parity suite), so any drift
// here means an intentional behaviour change — regenerate the goldens by
// running with --gtest_filter='*PrintActuals*' after convincing yourself
// the change is correct.
#include "ddm/slab_md.hpp"
#include "obs/metrics.hpp"
#include "run/trajectory.hpp"
#include "support/test_workloads.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <numeric>

namespace pcmd::run {
namespace {

RunSpec golden_config() {
  return RunSpec{}
      .with_pe_count(9)
      .with_m(2)
      .with_density(0.384)
      .with_seed(7)
      .with_steps(60)
      .with_balancer(ddm::BalancerKind::kPermanent);
}

struct GoldenSummary {
  double final_total_energy = 0.0;  // PE + KE after the last step
  double makespan = 0.0;            // sum of per-step Tt (virtual seconds)
  double mean_spread = 0.0;         // mean of Fmax - Fmin over all steps
};

GoldenSummary summarize(const MdTrajectoryResult& result) {
  GoldenSummary s;
  const auto& last = result.metrics.back();
  s.final_total_energy = last.potential_energy + last.kinetic_energy;
  s.makespan =
      std::accumulate(result.t_step.begin(), result.t_step.end(), 0.0);
  for (std::size_t i = 0; i < result.f_max.size(); ++i) {
    s.mean_spread += result.f_max[i] - result.f_min[i];
  }
  s.mean_spread /= static_cast<double>(result.f_max.size());
  return s;
}

// Committed goldens for golden_config() (9 PEs, m=2, rho*=0.384, seed 7,
// 60 steps, DLB on). Tolerance is relative 1e-6: the run itself is
// deterministic, the slack only absorbs benign compiler/libm variation.
// The makespan includes wire framing: the 8-byte checksum header on every
// ddm message is part of the modelled transfer cost.
constexpr double kGoldenTotalEnergy = -1549.2539981889756;
constexpr double kGoldenMakespan = 2.4124106266666625;
constexpr double kGoldenMeanSpread = 0.0071342249999999958;
constexpr double kRelTol = 1.0e-6;

void expect_near_rel(double actual, double golden, const char* what) {
  EXPECT_NEAR(actual, golden, std::abs(golden) * kRelTol) << what;
}

TEST(GoldenMd, SummaryMatchesCommittedGoldens) {
  const auto result = run_md_trajectory(golden_config());
  ASSERT_EQ(result.metrics.size(), 60u);
  const auto s = summarize(result);
  expect_near_rel(s.final_total_energy, kGoldenTotalEnergy, "total energy");
  expect_near_rel(s.makespan, kGoldenMakespan, "makespan");
  expect_near_rel(s.mean_spread, kGoldenMeanSpread, "Fmax-Fmin spread");
}

// The same run with no balancer, which skips phase B's decision. The DLB
// run above never moves a column in its 60 steps, so these equal its
// goldens.
constexpr double kGoldenDdmTotalEnergy = -1549.2539981889756;
constexpr double kGoldenDdmMakespan = 2.4124106266666625;
constexpr double kGoldenDdmMeanSpread = 0.0071342249999999958;

TEST(GoldenMd, DdmRunMatchesCommittedGoldens) {
  const auto result = run_md_trajectory(
      golden_config().with_balancer(ddm::BalancerKind::kNone));
  ASSERT_EQ(result.metrics.size(), 60u);
  const auto s = summarize(result);
  expect_near_rel(s.final_total_energy, kGoldenDdmTotalEnergy, "energy");
  expect_near_rel(s.makespan, kGoldenDdmMakespan, "makespan");
  expect_near_rel(s.mean_spread, kGoldenDdmMeanSpread, "Fmax-Fmin spread");
}

TEST(GoldenMd, MetricsRowsMirrorAdHocSeries) {
  // The CSV metrics path must carry exactly the numbers the ad-hoc vectors
  // (the pre-observability outputs) carry — bitwise, not approximately.
  const auto result = run_md_trajectory(golden_config());
  ASSERT_EQ(result.metrics.size(), result.t_step.size());
  int transfers = 0;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& row = result.metrics[i];
    EXPECT_EQ(row.step, static_cast<std::int64_t>(i) + 1);  // 1-based steps
    EXPECT_EQ(row.t_step, result.t_step[i]);
    EXPECT_EQ(row.force_max, result.f_max[i]);
    EXPECT_EQ(row.force_avg, result.f_avg[i]);
    EXPECT_EQ(row.force_min, result.f_min[i]);
    EXPECT_GE(row.force_max, row.force_min);
    EXPECT_GT(row.messages, 0u);
    EXPECT_GT(row.bytes, 0u);
    EXPECT_GE(row.wait_seconds, 0.0);
    EXPECT_GE(row.collective_seconds, 0.0);
    EXPECT_GT(row.temperature, 0.0);
    transfers += row.transfers;
  }
  EXPECT_EQ(transfers, result.transfers_total);
}

TEST(GoldenMd, RunIsBitwiseReproducible) {
  const auto a = run_md_trajectory(golden_config());
  const auto b = run_md_trajectory(golden_config());
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].t_step, b.metrics[i].t_step) << "step " << i;
    EXPECT_EQ(a.metrics[i].potential_energy, b.metrics[i].potential_energy);
    EXPECT_EQ(a.metrics[i].wait_seconds, b.metrics[i].wait_seconds);
    EXPECT_EQ(a.metrics[i].messages, b.metrics[i].messages);
    EXPECT_EQ(a.metrics[i].bytes, b.metrics[i].bytes);
  }
}

// Disabled by default: prints the actual summary values in golden-constant
// form. Run with --gtest_also_run_disabled_tests (or filter *PrintActuals*)
// to regenerate the constants above after an intentional change.
TEST(GoldenMd, DISABLED_PrintActuals) {
  const auto print = [](const char* run, const GoldenSummary& s) {
    std::printf("constexpr double kGolden%sTotalEnergy = %.17g;\n", run,
                s.final_total_energy);
    std::printf("constexpr double kGolden%sMakespan = %.17g;\n", run,
                s.makespan);
    std::printf("constexpr double kGolden%sMeanSpread = %.17g;\n", run,
                s.mean_spread);
  };
  print("", summarize(run_md_trajectory(golden_config())));
  print("Ddm", summarize(run_md_trajectory(
                   golden_config().with_balancer(ddm::BalancerKind::kNone))));
}

// ---- SlabMd, the 1-D boundary-shift baseline ----

// 800 lattice particles, 80% of them in the lowest 30% of a 20-box: a load
// concentrated on the ring's first slabs, so shifting has work to do.
// P = 4 ranks over 8 layers of edge 2.5, 60 steps.
struct SlabSummary {
  double makespan = 0.0;            // sum of per-step t_step
  double final_total_energy = 0.0;  // PE + KE after the last step
  int shifts = 0;                   // layers moved over the run
  std::uint64_t messages = 0;       // engine total over ranks, incl. setup
  std::uint64_t bytes = 0;
};

SlabSummary run_golden_slab(bool shift) {
  const Box box = Box::cubic(20.0);
  ddm::SlabMdConfig config;
  config.pe_count = 4;
  config.cells_per_axis = 8;
  config.dt = 0.004;
  config.shift_enabled = shift;
  sim::SeqEngine engine(config.pe_count);
  ddm::SlabMd slab(engine, box,
                   pcmd::testing::concentrated_lattice(800, box, 0.8, 0.3),
                   config);
  SlabSummary s;
  ddm::SlabStepStats stats;
  for (int i = 0; i < 60; ++i) {
    stats = slab.step();
    s.makespan += stats.t_step;
    s.shifts += stats.shifts;
  }
  s.final_total_energy = stats.potential_energy + stats.kinetic_energy;
  for (int r = 0; r < engine.size(); ++r) {
    s.messages += engine.counters(r).messages_sent;
    s.bytes += engine.counters(r).bytes_sent;
  }
  return s;
}

// Committed goldens for run_golden_slab(), with shifting and without.
// Doubles take GoldenMd's relative tolerance; counts must match exactly.
constexpr SlabSummary kGoldenSlabShift{3.145683680000007, -1009.1709855569201,
                                       4, 1928, 2694096};
constexpr SlabSummary kGoldenSlabStatic{5.2462608000000142, -1009.170985556921,
                                        0, 1928, 1607808};

void expect_slab_summary(const SlabSummary& actual, const SlabSummary& golden) {
  expect_near_rel(actual.makespan, golden.makespan, "slab makespan");
  expect_near_rel(actual.final_total_energy, golden.final_total_energy,
                  "slab total energy");
  EXPECT_EQ(actual.shifts, golden.shifts);
  EXPECT_EQ(actual.messages, golden.messages);
  EXPECT_EQ(actual.bytes, golden.bytes);
}

TEST(GoldenSlab, ShiftingRunMatchesCommittedGoldens) {
  expect_slab_summary(run_golden_slab(true), kGoldenSlabShift);
}

TEST(GoldenSlab, StaticRunMatchesCommittedGoldens) {
  expect_slab_summary(run_golden_slab(false), kGoldenSlabStatic);
}

// Disabled by default, like GoldenMd.DISABLED_PrintActuals: prints both
// summaries in golden-constant form.
TEST(GoldenSlab, DISABLED_PrintActuals) {
  for (const bool shift : {true, false}) {
    const SlabSummary s = run_golden_slab(shift);
    std::printf("constexpr SlabSummary %s{%.17g, %.17g, %d, %" PRIu64
                ", %" PRIu64 "};\n",
                shift ? "kGoldenSlabShift" : "kGoldenSlabStatic", s.makespan,
                s.final_total_energy, s.shifts, s.messages, s.bytes);
  }
}

}  // namespace
}  // namespace pcmd::run
