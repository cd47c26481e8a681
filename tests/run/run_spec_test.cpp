// run::RunSpec parser battery: every legacy flag spelling the harnesses used
// to parse by hand must keep working through the shared parser, malformed
// values must throw naming flag + token + grammar (the PR-4 house style),
// and unknown flags must be hard errors via require_all_flags_consumed. The
// last section runs specs end to end through run_md_trajectory.
#include "run/run_spec.hpp"

#include "run/trajectory.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace pcmd::run {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

RunSpec parse(std::initializer_list<const char*> args,
              RunSpec defaults = {}) {
  const Cli cli = make_cli(args);
  RunSpec spec = parse_run_spec(cli, std::move(defaults));
  require_all_flags_consumed(cli, "run_spec_test");
  return spec;
}

// Expects fn() to throw run::SpecError (the typed parse error, still an
// std::invalid_argument for legacy catch sites) whose message contains every
// needle — flag name, offending token, and a grammar hint.
template <typename Fn>
void expect_rejected(Fn fn, std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected run::SpecError";
  } catch (const SpecError& e) {
    const std::string message = e.what();
    for (const char* needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "message \"" << message << "\" lacks \"" << needle << "\"";
    }
  }
}

TEST(RunSpecParser, RejectionsAreTypedSpecErrors) {
  // The precise type matters: the serve layer classifies a SpecError as
  // kMalformedSpec (terminal quarantine, no retry), so these must neither
  // widen to a bare invalid_argument nor escape as anything else.
  EXPECT_THROW(parse({"--steps", "banana"}), SpecError);
  EXPECT_THROW(parse({"--no-such-flag", "1"}), SpecError);
  EXPECT_THROW(parse({"--faults", "seed=x"}), SpecError);
  EXPECT_THROW(parse({"--degrade", "rank=0"}), SpecError);
  // And SpecError still reads as invalid_argument for legacy catch sites.
  EXPECT_THROW(parse({"--steps", "banana"}), std::invalid_argument);
}

// ---- legacy flag spellings ------------------------------------------------

TEST(RunSpecParser, DefaultsSurviveEmptyCommandLine) {
  RunSpec defaults;
  defaults.system.pe_count = 9;
  defaults.system.m = 2;
  defaults.system.density = 0.256;
  defaults.system.seed = 42;
  defaults.steps = 100;
  const auto spec = parse({}, defaults);
  EXPECT_EQ(spec.system.pe_count, 9);
  EXPECT_EQ(spec.system.m, 2);
  EXPECT_DOUBLE_EQ(spec.system.density, 0.256);
  EXPECT_EQ(spec.system.seed, 42u);
  EXPECT_EQ(spec.steps, 100);
  EXPECT_EQ(spec.balancer.kind, ddm::BalancerKind::kPermanent);
  EXPECT_FALSE(spec.degrade.has_value());
  EXPECT_FALSE(spec.trace_path.has_value());
  EXPECT_TRUE(spec.faults.empty());
  EXPECT_FALSE(spec.fault_tolerance.reliable);
  EXPECT_FALSE(spec.healing_enabled());
  EXPECT_EQ(spec.checkpoint_every, 0);
}

TEST(RunSpecParser, CoreNumericFlagsBothSpellings) {
  const auto eq = parse({"--steps=250", "--density=0.384", "--m=4",
                         "--seed=7"});
  EXPECT_EQ(eq.steps, 250);
  EXPECT_DOUBLE_EQ(eq.system.density, 0.384);
  EXPECT_EQ(eq.system.m, 4);
  EXPECT_EQ(eq.system.seed, 7u);
  const auto space = parse({"--steps", "250", "--density", "0.384", "--m",
                            "4", "--seed", "7"});
  EXPECT_EQ(space.steps, 250);
  EXPECT_DOUBLE_EQ(space.system.density, 0.384);
  EXPECT_EQ(space.system.m, 4);
  EXPECT_EQ(space.system.seed, 7u);
}

TEST(RunSpecParser, DlbToggleSpellings) {
  // --dlb 0 is the old spelling of --balancer none, whatever --balancer
  // says; --dlb 1 keeps the --balancer policy.
  EXPECT_EQ(parse({"--dlb=0"}).balancer.kind, ddm::BalancerKind::kNone);
  EXPECT_EQ(parse({"--dlb", "false"}).balancer.kind,
            ddm::BalancerKind::kNone);
  EXPECT_EQ(parse({"--dlb", "0", "--balancer", "rescale"}).balancer.kind,
            ddm::BalancerKind::kNone);
  EXPECT_EQ(parse({"--balancer=diffusion", "--dlb=0"}).balancer.kind,
            ddm::BalancerKind::kNone);
  EXPECT_EQ(parse({"--dlb=1"}).balancer.kind, ddm::BalancerKind::kPermanent);
  EXPECT_EQ(parse({"--dlb", "yes", "--balancer", "diffusion"}).balancer.kind,
            ddm::BalancerKind::kDiffusion);
}

TEST(RunSpecParser, BalancerFlagSelectsPolicy) {
  EXPECT_EQ(parse({}).balancer.kind, ddm::BalancerKind::kPermanent);
  EXPECT_EQ(parse({"--balancer", "permanent"}).balancer.kind,
            ddm::BalancerKind::kPermanent);
  EXPECT_EQ(parse({"--balancer=rescale"}).balancer.kind,
            ddm::BalancerKind::kRescale);
  EXPECT_EQ(parse({"--balancer", "diffusion"}).balancer.kind,
            ddm::BalancerKind::kDiffusion);
  EXPECT_EQ(parse({"--balancer=none"}).balancer.kind,
            ddm::BalancerKind::kNone);
}

TEST(RunSpecParser, UnknownBalancerPolicyIsHardError) {
  expect_rejected(
      [] { (void)parse({"--balancer", "greedy"}); },
      {"--balancer", "greedy", "permanent|rescale|diffusion|none"});
}

TEST(RunSpecParser, TraceFlagSetsSinkPath) {
  const auto spec = parse({"--trace", "out/run"});
  ASSERT_TRUE(spec.trace_path.has_value());
  EXPECT_EQ(*spec.trace_path, "out/run");
}

TEST(RunSpecParser, FaultsPlanEnablesReliableRouting) {
  const auto spec = parse({"--faults", "seed=7,drop=0.05"});
  EXPECT_FALSE(spec.faults.empty());
  EXPECT_EQ(spec.faults.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.faults.drop_rate, 0.05);
  EXPECT_TRUE(spec.fault_tolerance.reliable);
}

TEST(RunSpecParser, CheckpointAndHealingFlags) {
  const auto spec = parse(
      {"--checkpoint-every", "50", "--buddy-every", "10", "--spares", "1"});
  EXPECT_EQ(spec.checkpoint_every, 50);
  EXPECT_TRUE(spec.healing_enabled());
  EXPECT_EQ(spec.fault_tolerance.healing.buddy_every, 10);
  EXPECT_EQ(spec.fault_tolerance.healing.spares, 1);
  // --spares alone also turns healing on (the buddy cadence keeps its
  // default), matching the old scaling_study behaviour.
  const auto spares_only = parse({"--spares", "2"});
  EXPECT_TRUE(spares_only.healing_enabled());
  EXPECT_EQ(spares_only.fault_tolerance.healing.spares, 2);
}

// Accepting a negative count would change behaviour silently: --spares
// would turn healing on with a negative spare pool, --buddy-every would be
// dropped so healing stays off, and --checkpoint-every would give the
// canonical job text a second spelling of "off".
TEST(RunSpecParser, NegativeSparesRejected) {
  expect_rejected(
      [] { (void)parse({"--spares", "-2", "--buddy-every", "5"}); },
      {"--spares", "'-2'"});
}

TEST(RunSpecParser, NegativeBuddyEveryRejected) {
  expect_rejected([] { (void)parse({"--buddy-every", "-3"}); },
                  {"--buddy-every", "'-3'"});
}

TEST(RunSpecParser, NegativeCheckpointEveryRejected) {
  expect_rejected([] { (void)parse({"--checkpoint-every", "-4"}); },
                  {"--checkpoint-every", "'-4'"});
}

// A negative seed used to wrap to a 20-digit uint64 whose canonical job
// text no longer parses, and an --m past int range to a small valid m
// (4294967298 ran as m = 2).
TEST(RunSpecParser, WrappingSeedAndMRejected) {
  expect_rejected([] { (void)parse({"--seed", "-1"}); },
                  {"--seed", "'-1'", "out of range"});
  expect_rejected([] { (void)parse({"--m", "4294967298"}); },
                  {"--m", "'4294967298'", "out of range"});
  expect_rejected([] { (void)parse({"--m=-4294967294"}); },
                  {"--m", "'-4294967294'", "out of range"});
}

TEST(RunSpecParser, DegradeSpecWithDefaultAndExplicitFactor) {
  const auto spec = parse({"--degrade", "rank=4,at=0.05"});
  ASSERT_TRUE(spec.degrade.has_value());
  EXPECT_EQ(spec.degrade->rank, 4);
  EXPECT_DOUBLE_EQ(spec.degrade->at, 0.05);
  EXPECT_DOUBLE_EQ(spec.degrade->factor, 6.0);
  const auto custom =
      parse({"--degrade", "rank=2,at=0.1", "--degrade-factor", "3.5"});
  ASSERT_TRUE(custom.degrade.has_value());
  EXPECT_DOUBLE_EQ(custom.degrade->factor, 3.5);
  // The degrade stall folds into the effective fault plan.
  const auto plan = custom.fault_plan();
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].rank, 2);
  EXPECT_DOUBLE_EQ(plan.stalls[0].from, 0.1);
  EXPECT_DOUBLE_EQ(plan.stalls[0].factor, 3.5);
}

TEST(RunSpecParser, DegradeFactorAloneIsConsumedNotUnknown) {
  const auto spec = parse({"--degrade-factor", "4"});
  EXPECT_FALSE(spec.degrade.has_value());
}

// ---- derived configs ------------------------------------------------------

TEST(RunSpecParser, ParallelConfigMirrorsSystemSpec) {
  RunSpec defaults;
  defaults.system.pe_count = 9;
  defaults.system.m = 4;
  const auto spec = parse({"--dlb=0"}, defaults);
  const auto config = spec.parallel_config();
  EXPECT_EQ(config.pe_side, 3);
  EXPECT_EQ(config.m, 4);
  EXPECT_EQ(config.balancer.kind, ddm::BalancerKind::kNone);
  EXPECT_DOUBLE_EQ(config.cutoff, spec.system.cutoff);
  EXPECT_DOUBLE_EQ(config.dt, spec.system.dt);
}

TEST(RunSpecParser, BuildersChain) {
  const RunSpec spec = RunSpec{}
                           .with_pe_count(16)
                           .with_m(4)
                           .with_density(0.384)
                           .with_seed(9)
                           .with_steps(1200)
                           .with_balancer(ddm::BalancerKind::kDiffusion)
                           .with_checkpoint_every(25)
                           .with_trace("out/x");
  EXPECT_EQ(spec.system.pe_count, 16);
  EXPECT_EQ(spec.system.m, 4);
  EXPECT_DOUBLE_EQ(spec.system.density, 0.384);
  EXPECT_EQ(spec.system.seed, 9u);
  EXPECT_EQ(spec.steps, 1200);
  EXPECT_EQ(spec.balancer.kind, ddm::BalancerKind::kDiffusion);
  EXPECT_EQ(spec.checkpoint_every, 25);
  ASSERT_TRUE(spec.trace_path.has_value());
  EXPECT_EQ(*spec.trace_path, "out/x");
}

// ---- rejection: flag + token + grammar in every message -------------------

TEST(RunSpecParser, UnknownFlagIsHardError) {
  expect_rejected(
      [] {
        const Cli cli = make_cli({"--steps", "10", "--typo-flag", "3"});
        (void)parse_run_spec(cli, {});
        require_all_flags_consumed(cli, "run_spec_test");
      },
      {"run_spec_test", "--typo-flag", "shared run flags"});
}

TEST(RunSpecParser, SeveralUnknownFlagsAllListed) {
  expect_rejected(
      [] {
        const Cli cli = make_cli({"--first", "--second=2"});
        (void)parse_run_spec(cli, {});
        require_all_flags_consumed(cli, "run_spec_test");
      },
      {"unknown flags", "--first", "--second"});
}

TEST(RunSpecParser, DegradeBadTokenNamesFlagTokenAndGrammar) {
  expect_rejected([] { (void)parse({"--degrade", "rank=4,bogus=1"}); },
                  {"--degrade", "bogus=1", "rank=K,at=T"});
  expect_rejected([] { (void)parse({"--degrade", "rank=x,at=0.1"}); },
                  {"--degrade", "rank=x", "rank=K,at=T"});
}

TEST(RunSpecParser, DegradeMissingKeyRejected) {
  expect_rejected([] { (void)parse({"--degrade", "rank=4"}); },
                  {"--degrade", "missing at=T", "rank=K,at=T"});
  expect_rejected([] { (void)parse({"--degrade", "at=0.1"}); },
                  {"--degrade", "missing rank=K", "rank=K,at=T"});
}

TEST(RunSpecParser, DegradeDuplicateKeyRejected) {
  expect_rejected([] { (void)parse({"--degrade", "rank=1,rank=2"}); },
                  {"--degrade", "rank=2"});
}

TEST(RunSpecParser, MalformedNumericsRejected) {
  expect_rejected([] { (void)parse({"--steps", "ten"}); }, {"steps", "ten"});
  expect_rejected([] { (void)parse({"--density", "0.2x"}); },
                  {"density", "0.2x"});
  expect_rejected([] { (void)parse({"--dlb", "maybe"}); }, {"dlb", "maybe"});
}

TEST(RunSpecParser, MalformedFaultPlanRejected) {
  expect_rejected([] { (void)parse({"--faults", "drop=lots"}); },
                  {"drop=lots"});
}

// ---- run_md_trajectory: a RunSpec end to end ---------------------------

TEST(RunMdTrajectory, SmallSmoke) {
  const auto spec = RunSpec{}
                        .with_pe_count(9)
                        .with_m(2)
                        .with_density(0.256)
                        .with_seed(5)
                        .with_steps(20);
  const auto result = run_md_trajectory(spec);
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
  auto spec = RunSpec{}
                  .with_pe_count(9)
                  .with_m(2)
                  .with_density(0.256)
                  .with_seed(5)
                  .with_steps(6)
                  .with_faults(sim::FaultPlan::parse("seed=1,crash=4@0.05"));
  spec.fault_tolerance.healing.enabled = true;
  spec.fault_tolerance.healing.buddy_every = 2;
  spec.fault_tolerance.healing.spares = 1;
  const auto result = run_md_trajectory(spec);
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
  const auto base = RunSpec{}
                        .with_pe_count(9)
                        .with_m(2)
                        .with_density(0.384)
                        .with_seed(9)
                        .with_steps(120);

  const auto a = run_md_trajectory(
      RunSpec(base).with_balancer(ddm::BalancerKind::kPermanent));
  const auto b =
      run_md_trajectory(RunSpec(base).with_balancer(ddm::BalancerKind::kNone));
  double sum_a = 0.0, sum_b = 0.0;
  for (std::size_t i = 100; i < 120; ++i) {
    sum_a += a.t_step[i];
    sum_b += b.t_step[i];
  }
  EXPECT_LE(sum_a, sum_b * 1.35);
}

}  // namespace
}  // namespace pcmd::run
