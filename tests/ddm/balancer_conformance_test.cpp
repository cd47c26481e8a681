// Balancer conformance battery: every registered policy must honour the
// ddm::Balancer contract (see balancer.hpp) regardless of what it decides.
// One parameterized suite asserts, per policy:
//   (a) Seq-vs-ThreadEngine bitwise parity of decisions and physics,
//   (b) per-step cell movement within the policy's declared cap,
//   (c) zero particles lost across migration under a seeded fault plan
//       (and physics bitwise equal to the fault-free run),
//   (d) checkpoint/restart resumes bitwise identical mid-rebalance.
// The workload is a concentrated (but overlap-free) lattice so the active
// policies genuinely move columns — a battery that never rebalances would
// be vacuous.
#include "ddm/balancer.hpp"
#include "ddm/parallel_md.hpp"
#include "sim/fault.hpp"
#include "support/test_workloads.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace pcmd::ddm {
namespace {

Box conformance_box() { return Box::cubic(15.0); }  // pe_side 3, m 2, K = 6

md::ParticleVector conformance_particles() {
  return pcmd::testing::concentrated_lattice(300, conformance_box());
}

ParallelMdConfig conformance_config(BalancerKind kind) {
  ParallelMdConfig config;
  config.pe_side = 3;
  config.m = 2;
  config.cutoff = 2.5;
  config.dt = 0.004;
  // Smooth deterministic virtual times can park the strict paper protocol
  // on an unhelpable PE_fast; fallback mode keeps the battery's runs busy.
  config.dlb.fallback_to_helpable = true;
  config.balancer.kind = kind;
  // Aggressive gates so the competitor policies actually move columns on
  // the concentrated lattice (the conformance properties must be exercised
  // on real transfers, not on policies that happen to sit still).
  config.balancer.rescale_tolerance = 0.01;
  config.balancer.diffusion_threshold = 0.005;
  return config;
}

struct RunResult {
  md::ParticleVector particles;
  std::vector<ParallelStepStats> stats;
  int transfers_total = 0;
};

RunResult run_policy(sim::Engine& engine, BalancerKind kind, int steps,
                     const sim::FaultPlan& plan = {}) {
  std::optional<sim::FaultInjector> injector;
  if (!plan.empty()) {
    injector.emplace(plan);
    engine.set_fault_injector(&*injector);
  }
  ParallelMdConfig config = conformance_config(kind);
  config.fault_tolerance.reliable = !plan.empty();
  const auto initial = conformance_particles();
  ParallelMd md(EngineConfig{.engine = &engine, .box = conformance_box(),
                             .initial = &initial},
                config);
  RunResult result;
  for (int i = 0; i < steps; ++i) {
    result.stats.push_back(md.step());
    result.transfers_total += result.stats.back().transfers;
  }
  result.particles = md.gather_particles();
  EXPECT_TRUE(md.check_ownership().ok);
  engine.set_fault_injector(nullptr);
  return result;
}

void expect_particles_bitwise(const md::ParticleVector& a,
                              const md::ParticleVector& b,
                              const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << what << " particle " << i;
    for (int c = 0; c < 3; ++c) {
      ASSERT_EQ(a[i].position[c], b[i].position[c])
          << what << " particle " << i << " component " << c;
      ASSERT_EQ(a[i].velocity[c], b[i].velocity[c])
          << what << " particle " << i << " component " << c;
    }
  }
}

class BalancerConformance : public ::testing::TestWithParam<BalancerKind> {};

std::string kind_name(const ::testing::TestParamInfo<BalancerKind>& info) {
  return balancer_name(info.param);
}

// (a) Decisions are pure functions of the step's inputs, so the two engines
// must agree on every transfer and every physics value, bit for bit.
TEST_P(BalancerConformance, SeqAndThreadEnginesAgreeBitwise) {
  constexpr int kSteps = 16;
  sim::SeqEngine seq(9);
  const RunResult a = run_policy(seq, GetParam(), kSteps);
  sim::ThreadEngine thread(9);
  const RunResult b = run_policy(thread, GetParam(), kSteps);

  expect_particles_bitwise(a.particles, b.particles, "engine parity");
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].transfers, b.stats[i].transfers) << "step " << i;
    EXPECT_EQ(a.stats[i].cells_moved, b.stats[i].cells_moved);
    EXPECT_EQ(a.stats[i].potential_energy, b.stats[i].potential_energy);
    EXPECT_EQ(a.stats[i].kinetic_energy, b.stats[i].kinetic_energy);
  }
}

// (b) Observed movement never exceeds the policy's declared per-rank cap,
// and the active policies genuinely move something on this workload.
TEST_P(BalancerConformance, MovementStaysWithinDeclaredCap) {
  constexpr int kSteps = 20;
  constexpr int kRanks = 9;
  const core::PillarLayout layout(3, 2);
  const auto balancer =
      make_balancer(layout, conformance_config(GetParam()).dlb,
                    conformance_config(GetParam()).balancer);
  const int cap = balancer->max_columns_per_step();
  ASSERT_GE(cap, 0);
  ASSERT_LE(cap, 1) << "the wire protocol carries one announcement per rank";

  sim::SeqEngine engine(kRanks);
  const RunResult r = run_policy(engine, GetParam(), kSteps);
  for (const auto& s : r.stats) {
    EXPECT_LE(s.transfers, cap * kRanks) << "step " << s.step;
    EXPECT_EQ(s.cells_moved, s.transfers * layout.cells_axis());
    EXPECT_GE(s.imbalance, 0.0);
  }
  if (GetParam() == BalancerKind::kNone) {
    EXPECT_EQ(r.transfers_total, 0) << "the no-op policy moved a column";
  } else {
    EXPECT_GT(r.transfers_total, 0)
        << "policy never rebalanced the concentrated workload — the "
           "conformance battery is vacuous for it";
  }
}

// (c) Migration mid-rebalance loses no particles even when the wire drops,
// corrupts and delays messages; the reliable channel masks all of it, so
// the faulty run's physics equals the clean run's bitwise.
TEST_P(BalancerConformance, ZeroParticleLossUnderSeededFaults) {
  constexpr int kSteps = 12;
  const auto plan =
      sim::FaultPlan::parse("seed=5,drop=0.06,corrupt=0.06,delay=0.1:1e-4");

  sim::SeqEngine clean_engine(9);
  const RunResult clean = run_policy(clean_engine, GetParam(), kSteps);
  sim::SeqEngine faulty_engine(9);
  const RunResult faulty = run_policy(faulty_engine, GetParam(), kSteps, plan);

  for (const auto& s : faulty.stats) {
    EXPECT_EQ(s.total_particles, 300) << "particles lost at step " << s.step;
  }
  expect_particles_bitwise(clean.particles, faulty.particles, "chaos");
  for (std::size_t i = 0; i < clean.stats.size(); ++i) {
    EXPECT_EQ(clean.stats[i].transfers, faulty.stats[i].transfers)
        << "decisions diverged under faults at step " << i;
    EXPECT_EQ(clean.stats[i].potential_energy,
              faulty.stats[i].potential_energy);
  }
}

// (d) decide() carries no hidden state, so a checkpoint taken mid-rebalance
// resumes bitwise without serializing anything balancer-specific.
TEST_P(BalancerConformance, CheckpointRestartResumesBitwiseMidRebalance) {
  constexpr int kTotalSteps = 24;
  constexpr int kKillAfter = 12;

  sim::SeqEngine ref_engine(9);
  const RunResult reference = run_policy(ref_engine, GetParam(), kTotalSteps);

  sim::Buffer snapshot;
  int transfers_before = 0;
  {
    sim::SeqEngine engine(9);
    const auto initial = conformance_particles();
    ParallelMd md(EngineConfig{.engine = &engine, .box = conformance_box(),
                               .initial = &initial},
                  conformance_config(GetParam()));
    for (int i = 0; i < kKillAfter; ++i) {
      transfers_before += md.step().transfers;
    }
    snapshot = md.checkpoint();
  }  // original machine gone
  if (GetParam() != BalancerKind::kNone) {
    ASSERT_GT(transfers_before, 0)
        << "no rebalancing happened before the checkpoint — the mid-"
           "rebalance property is not being tested";
  }

  sim::SeqEngine resumed_engine(9);
  ParallelMd resumed(EngineConfig{.engine = &resumed_engine,
                                  .checkpoint = &snapshot},
                     conformance_config(GetParam()));
  EXPECT_EQ(resumed.step_count(), kKillAfter);
  for (int i = kKillAfter; i < kTotalSteps; ++i) {
    const auto stats = resumed.step();
    EXPECT_EQ(stats.transfers,
              reference.stats[static_cast<std::size_t>(i)].transfers)
        << "decisions diverged after restart at step " << i;
    EXPECT_EQ(stats.potential_energy,
              reference.stats[static_cast<std::size_t>(i)].potential_energy);
    EXPECT_EQ(stats.kinetic_energy,
              reference.stats[static_cast<std::size_t>(i)].kinetic_energy);
  }
  expect_particles_bitwise(reference.particles, resumed.gather_particles(),
                           "restart");
  EXPECT_TRUE(resumed.check_ownership().ok);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BalancerConformance,
                         ::testing::ValuesIn(all_balancer_kinds()),
                         kind_name);

// Registry sanity outside the parameterized grid: names round-trip and
// unknown spellings are hard errors naming the accepted set.
TEST(BalancerRegistry, NamesRoundTripAndUnknownIsHardError) {
  for (const BalancerKind kind : all_balancer_kinds()) {
    EXPECT_EQ(parse_balancer_kind(balancer_name(kind)), kind);
  }
  EXPECT_THROW((void)parse_balancer_kind("greedy"), std::invalid_argument);
  EXPECT_THROW((void)parse_balancer_kind(""), std::invalid_argument);
  EXPECT_THROW((void)parse_balancer_kind("Permanent"), std::invalid_argument);
}

}  // namespace
}  // namespace pcmd::ddm
