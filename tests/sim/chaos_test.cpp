// Chaos battery: MD-level fault injection end to end. Asserts the three
// contracts of the fault-tolerance layer:
//   (a) injected runs stay bitwise identical between SeqEngine and
//       ThreadEngine (fault decisions are pure functions of the message
//       key, never of execution order);
//   (b) the reliable channel masks every transient fault — the physics of a
//       faulty run equals the fault-free golden bitwise;
//   (c) checkpoint -> kill -> restart equals the uninterrupted run bitwise,
//       and a permanent crash heals: the buddy replica brings the dead
//       rank's particles back, on a spare or onto the survivors that adopt
//       its permanent cells.
#include "ddm/parallel_md.hpp"
#include "md/checkpoint.hpp"
#include "md/serial_md.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace pcmd::ddm {
namespace {

// The box edge is 5σ per PE along a side: m = 2 cells of at least the
// 2.5σ cutoff.
Box chaos_box(int pe_side = 3) { return Box::cubic(5.0 * pe_side); }

ParallelMdConfig chaos_config(bool dlb = false) {
  ParallelMdConfig config;
  config.pe_side = 3;
  config.m = 2;
  config.cutoff = 2.5;
  config.dt = 0.004;
  config.rescale_temperature = 0.722;  // thermostat: schedule must survive
  config.rescale_interval = 10;        // restarts (fires inside short runs)
  config.balancer.kind = dlb ? BalancerKind::kPermanent : BalancerKind::kNone;
  return config;
}

md::ParticleVector chaos_gas(int n = 300, std::uint64_t seed = 11,
                             int pe_side = 3) {
  pcmd::Rng rng(seed);
  workload::GasConfig gas;
  gas.temperature = 0.722;
  return workload::random_gas(n, chaos_box(pe_side), gas, rng);
}

// One injected run: returns the final particle state plus the per-step
// stats, so callers can compare physics and counters independently.
struct RunResult {
  md::ParticleVector particles;
  std::vector<ParallelStepStats> stats;
  sim::FaultCounters faults;
};

// The system an injected run steps: P = pe_side^2 ranks on chaos_box.
struct ChaosSystem {
  int pe_side = 3;
  int particles = 300;
};

RunResult run_injected(sim::Engine& engine, const sim::FaultPlan& plan,
                       int steps, bool dlb, ChaosSystem system = {}) {
  std::optional<sim::FaultInjector> injector;
  if (!plan.empty()) {
    injector.emplace(plan);
    engine.set_fault_injector(&*injector);
  }
  ParallelMdConfig config = chaos_config(dlb);
  config.pe_side = system.pe_side;
  config.fault_tolerance.reliable = !plan.empty();
  const auto initial = chaos_gas(system.particles, 11, system.pe_side);
  ParallelMd md(EngineConfig{.engine = &engine,
                             .box = chaos_box(system.pe_side),
                             .initial = &initial},
                config);
  RunResult result;
  for (int i = 0; i < steps; ++i) result.stats.push_back(md.step());
  result.particles = md.gather_particles();
  if (injector) result.faults = injector->counters();
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

// The fault plans the battery sweeps: every transient fault type alone,
// then combined, at two seeds.
const char* const kTransientPlans[] = {
    "seed=1,drop=0.08",
    "seed=1,corrupt=0.08",
    "seed=1,delay=0.15:2e-4",
    "seed=1,degrade=1-4x6",
    "seed=1,stall=2@0.001-0.05x3",
    "seed=1,drop=0.05,corrupt=0.05,delay=0.1:1e-4",
    "seed=9,drop=0.05,corrupt=0.05,delay=0.1:1e-4",
};

TEST(Chaos, SeqAndThreadEnginesAgreeBitwiseUnderInjection) {
  constexpr int kSteps = 12;
  // P = 36 at a quarter of the P = 9 density: more ranks than the runners
  // of a host below 36 cores, so each runner claims several per phase.
  for (const ChaosSystem system : {ChaosSystem{}, ChaosSystem{6, 600}}) {
    for (const char* spec : kTransientPlans) {
      SCOPED_TRACE(std::string(spec) + ", P = " +
                   std::to_string(system.pe_side * system.pe_side));
      const auto plan = sim::FaultPlan::parse(spec);

      const int ranks = system.pe_side * system.pe_side;
      sim::SeqEngine seq(ranks);
      const RunResult a = run_injected(seq, plan, kSteps, /*dlb=*/true, system);
      sim::ThreadEngine thread(ranks);
      const RunResult b =
          run_injected(thread, plan, kSteps, /*dlb=*/true, system);

      expect_particles_bitwise(a.particles, b.particles, spec);
      ASSERT_EQ(a.stats.size(), b.stats.size());
      for (std::size_t i = 0; i < a.stats.size(); ++i) {
        // Physics and integer fault counters must agree exactly. (Float time
        // aggregates like stall_seconds are mutex-order sums on ThreadEngine
        // and are deliberately not compared.)
        EXPECT_EQ(a.stats[i].potential_energy, b.stats[i].potential_energy)
            << "step " << i;
        EXPECT_EQ(a.stats[i].kinetic_energy, b.stats[i].kinetic_energy);
        EXPECT_EQ(a.stats[i].transfers, b.stats[i].transfers);
        EXPECT_EQ(a.stats[i].retransmissions, b.stats[i].retransmissions)
            << "retry schedule diverged between engines at step " << i;
        EXPECT_EQ(a.stats[i].corrupt_discarded, b.stats[i].corrupt_discarded);
        EXPECT_EQ(a.stats[i].recv_timeouts, b.stats[i].recv_timeouts);
      }
      EXPECT_EQ(a.faults.messages_dropped, b.faults.messages_dropped);
      EXPECT_EQ(a.faults.messages_corrupted, b.faults.messages_corrupted);
      EXPECT_EQ(a.faults.messages_delayed, b.faults.messages_delayed);
      EXPECT_EQ(a.faults.stalled_advances, b.faults.stalled_advances);
    }
  }
}

TEST(Chaos, ReliableChannelMasksEveryTransientFaultType) {
  constexpr int kSteps = 15;
  sim::SeqEngine golden_engine(9);
  const RunResult golden =
      run_injected(golden_engine, sim::FaultPlan{}, kSteps, /*dlb=*/true);

  for (const char* spec : kTransientPlans) {
    SCOPED_TRACE(spec);
    const auto plan = sim::FaultPlan::parse(spec);
    ASSERT_TRUE(plan.transient_only());
    sim::SeqEngine engine(9);
    const RunResult faulty = run_injected(engine, plan, kSteps, /*dlb=*/true);

    // The faults genuinely fired: either a counter moved, or — for pure
    // link degradation, which has no counter — the virtual clock ran
    // measurably longer than the fault-free golden.
    const auto& fc = faulty.faults;
    if (plan.degraded_links.empty()) {
      EXPECT_GT(fc.messages_dropped + fc.messages_corrupted +
                    fc.messages_delayed + fc.stalled_advances,
                0u)
          << "plan injected nothing — the test is vacuous";
    } else {
      EXPECT_GT(engine.makespan(), golden_engine.makespan())
          << "degraded links did not slow the machine — the test is vacuous";
    }

    // ...and the physics never noticed: positions, velocities and energies
    // equal the fault-free golden bitwise. Only clocks and counters moved.
    expect_particles_bitwise(golden.particles, faulty.particles, spec);
    for (std::size_t i = 0; i < golden.stats.size(); ++i) {
      EXPECT_EQ(golden.stats[i].potential_energy,
                faulty.stats[i].potential_energy)
          << "step " << i;
      EXPECT_EQ(golden.stats[i].kinetic_energy, faulty.stats[i].kinetic_energy);
      EXPECT_EQ(golden.stats[i].temperature, faulty.stats[i].temperature);
      EXPECT_EQ(golden.stats[i].total_particles,
                faulty.stats[i].total_particles);
    }
    if (plan.drop_rate > 0.0) {
      EXPECT_GT(fc.messages_dropped, 0u);
    }
    if (plan.corrupt_rate > 0.0) {
      EXPECT_GT(fc.messages_corrupted, 0u);
    }
  }
}

TEST(Chaos, RetryCountersAreDeterministicAcrossIdenticalRuns) {
  // Two identical injected runs must agree on every integer counter — this
  // is the assertion the CI chaos job repeats under TSan.
  const auto plan =
      sim::FaultPlan::parse("seed=5,drop=0.06,corrupt=0.06,delay=0.1:1e-4");
  auto totals = [&](sim::Engine& engine) {
    const RunResult r = run_injected(engine, plan, 10, /*dlb=*/true);
    std::uint64_t retransmissions = 0, corrupt = 0, timeouts = 0;
    for (const auto& s : r.stats) {
      retransmissions += s.retransmissions;
      corrupt += s.corrupt_discarded;
      timeouts += s.recv_timeouts;
    }
    return std::tuple(retransmissions, corrupt, timeouts,
                      r.faults.messages_dropped, r.faults.messages_corrupted);
  };
  sim::ThreadEngine first(9);
  sim::ThreadEngine second(9);
  const auto a = totals(first);
  const auto b = totals(second);
  EXPECT_EQ(a, b);
  // Stable marker line for the CI chaos job: it runs this binary twice and
  // diffs these lines across the two processes.
  const auto [retransmissions, corrupt, timeouts, dropped, corrupted] = a;
  std::printf("CHAOS-COUNTERS retransmissions=%llu corrupt_discarded=%llu "
              "recv_timeouts=%llu dropped=%llu corrupted=%llu\n",
              static_cast<unsigned long long>(retransmissions),
              static_cast<unsigned long long>(corrupt),
              static_cast<unsigned long long>(timeouts),
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(corrupted));
}

TEST(Chaos, CheckpointKillRestartIsBitwiseIdentical) {
  constexpr int kTotalSteps = 30;
  constexpr int kKillAfter = 12;  // thermostat fires at 10, 20: the restart
                                  // boundary sits between two rescales

  // Uninterrupted reference, DLB on.
  sim::SeqEngine ref_engine(9);
  const auto initial = chaos_gas();
  ParallelMd reference(EngineConfig{.engine = &ref_engine, .box = chaos_box(),
                                    .initial = &initial},
                       chaos_config(/*dlb=*/true));
  std::vector<ParallelStepStats> ref_stats;
  for (int i = 0; i < kTotalSteps; ++i) ref_stats.push_back(reference.step());

  // Same run, killed at kKillAfter and restarted from the checkpoint in a
  // brand-new engine (the "machine" that replaces the crashed one).
  sim::Buffer snapshot;
  {
    sim::SeqEngine engine(9);
    ParallelMd md(EngineConfig{.engine = &engine, .box = chaos_box(),
                               .initial = &initial},
                  chaos_config(true));
    for (int i = 0; i < kKillAfter; ++i) md.step();
    snapshot = md.checkpoint();
  }  // original machine gone

  sim::SeqEngine resumed_engine(9);
  ParallelMd resumed(EngineConfig{.engine = &resumed_engine,
                                  .checkpoint = &snapshot},
                     chaos_config(true));
  EXPECT_EQ(resumed.step_count(), kKillAfter);
  for (int i = kKillAfter; i < kTotalSteps; ++i) {
    const auto stats = resumed.step();
    EXPECT_EQ(stats.potential_energy, ref_stats[i].potential_energy)
        << "diverged at step " << i;
    EXPECT_EQ(stats.kinetic_energy, ref_stats[i].kinetic_energy);
    EXPECT_EQ(stats.temperature, ref_stats[i].temperature);
    EXPECT_EQ(stats.transfers, ref_stats[i].transfers);
  }
  expect_particles_bitwise(reference.gather_particles(),
                           resumed.gather_particles(), "after restart");
  EXPECT_TRUE(resumed.check_ownership().ok);
}

TEST(Chaos, CheckpointSurvivesFaultInjectionAcrossTheBoundary) {
  // Checkpoint/restart composes with fault injection: the same plan drives
  // both halves, and the restarted run still matches the uninterrupted one.
  const auto plan = sim::FaultPlan::parse("seed=3,drop=0.05,corrupt=0.05");
  constexpr int kTotalSteps = 20;
  constexpr int kKillAfter = 8;

  sim::SeqEngine ref_engine(9);
  const RunResult reference =
      run_injected(ref_engine, plan, kTotalSteps, /*dlb=*/true);

  sim::Buffer snapshot;
  {
    sim::SeqEngine engine(9);
    sim::FaultInjector injector(plan);
    engine.set_fault_injector(&injector);
    ParallelMdConfig config = chaos_config(true);
    config.fault_tolerance.reliable = true;
    const auto initial = chaos_gas();
    ParallelMd md(EngineConfig{.engine = &engine, .box = chaos_box(),
                               .initial = &initial},
                  config);
    for (int i = 0; i < kKillAfter; ++i) md.step();
    snapshot = md.checkpoint();
    engine.set_fault_injector(nullptr);
  }

  sim::SeqEngine engine(9);
  sim::FaultInjector injector(plan);
  engine.set_fault_injector(&injector);
  ParallelMdConfig config = chaos_config(true);
  config.fault_tolerance.reliable = true;
  ParallelMd resumed(EngineConfig{.engine = &engine, .checkpoint = &snapshot},
                     config);
  for (int i = kKillAfter; i < kTotalSteps; ++i) resumed.step();
  expect_particles_bitwise(reference.particles, resumed.gather_particles(),
                           "faulty restart");
  engine.set_fault_injector(nullptr);
}

TEST(Chaos, CheckpointRejectsCorruptionAndWrongEngine) {
  sim::SeqEngine engine(9);
  const auto initial = chaos_gas(100);
  ParallelMd md(EngineConfig{.engine = &engine, .box = chaos_box(),
                             .initial = &initial},
                chaos_config());
  md.step();
  const sim::Buffer good = md.checkpoint();

  // Any flipped byte fails the envelope CRC before a field is read.
  for (const std::size_t at : {std::size_t{0}, good.size() / 2,
                               good.size() - 1}) {
    sim::Buffer bad = good;
    bad[at] ^= 0x20;
    sim::SeqEngine fresh(9);
    EXPECT_THROW(ParallelMd(EngineConfig{.engine = &fresh, .checkpoint = &bad},
                            chaos_config()),
                 std::runtime_error)
        << "byte " << at;
  }
  // Truncation fails loudly too.
  {
    sim::Buffer bad(good.begin(), good.begin() + 10);
    sim::SeqEngine fresh(9);
    EXPECT_THROW(ParallelMd(EngineConfig{.engine = &fresh, .checkpoint = &bad},
                            chaos_config()),
                 std::runtime_error);
  }
  // A mismatched decomposition is rejected before any state is restored.
  {
    sim::SeqEngine fresh(9);
    ParallelMdConfig wrong = chaos_config();
    wrong.m = 4;
    EXPECT_THROW(ParallelMd(EngineConfig{.engine = &fresh, .checkpoint = &good},
                            wrong),
                 std::runtime_error);
  }
}

TEST(Chaos, SerialCheckpointRoundTripsAndResumesBitwise) {
  md::SerialMdConfig config;
  config.dt = 0.004;
  config.rescale_temperature = 0.722;
  config.rescale_interval = 10;
  const auto initial = chaos_gas(200, 17);

  md::SerialMd reference(chaos_box(), initial, config);
  std::vector<md::StepStats> ref_stats;
  for (int i = 0; i < 25; ++i) ref_stats.push_back(reference.step());

  md::SerialMd first_half(chaos_box(), initial, config);
  for (int i = 0; i < 12; ++i) first_half.step();

  md::SerialCheckpoint state;
  state.step = first_half.step_count();
  state.box = first_half.box();
  state.particles = first_half.particles();
  const sim::Buffer sealed = md::pack_serial_checkpoint(state);
  const md::SerialCheckpoint restored = md::unpack_serial_checkpoint(sealed);
  EXPECT_EQ(restored.step, 12);
  EXPECT_FALSE(restored.has_rng);
  expect_particles_bitwise(state.particles, restored.particles,
                           "serial pack round-trip");

  md::SerialMdConfig resume_config = config;
  resume_config.initial_step = restored.step;
  md::SerialMd resumed(restored.box, restored.particles, resume_config);
  for (int i = 12; i < 25; ++i) {
    const auto stats = resumed.step();
    EXPECT_EQ(stats.potential_energy, ref_stats[i].potential_energy)
        << "diverged at step " << i;
    EXPECT_EQ(stats.kinetic_energy, ref_stats[i].kinetic_energy);
  }
  expect_particles_bitwise(reference.particles(), resumed.particles(),
                           "serial resume");
}

// ---- self-healing battery: buddy checkpoints, spare failover, watchdog ----

ParallelMdConfig healing_config(int buddy_every, int spares,
                                bool dlb = true) {
  ParallelMdConfig config = chaos_config(dlb);
  config.fault_tolerance.healing.enabled = true;
  config.fault_tolerance.healing.buddy_every = buddy_every;
  config.fault_tolerance.healing.spares = spares;
  return config;
}

struct HealResult {
  md::ParticleVector particles;
  std::vector<ParallelStepStats> stats;
  RecoveryCounters recovery;
  int epoch = 0;
  int alive_roles = 0;
  bool ownership_ok = false;
  std::vector<core::ColumnMap> views;  // each role's ownership view
};

HealResult run_healing(sim::Engine& engine, const std::string& plan_spec,
                       int steps, const ParallelMdConfig& config) {
  std::optional<sim::FaultInjector> injector;
  if (!plan_spec.empty()) {
    injector.emplace(sim::FaultPlan::parse(plan_spec));
    engine.set_fault_injector(&*injector);
  }
  const auto initial = chaos_gas();
  ParallelMd md(EngineConfig{.engine = &engine, .box = chaos_box(),
                             .initial = &initial},
                config);
  HealResult result;
  for (int i = 0; i < steps; ++i) result.stats.push_back(md.step());
  result.particles = md.gather_particles();
  result.recovery = md.recovery_counters();
  result.epoch = md.membership().epoch();
  result.alive_roles = md.membership().alive_roles();
  result.ownership_ok = md.check_ownership().ok;
  for (int role = 0; role < md.layout().pe_count(); ++role) {
    result.views.push_back(md.column_map_view(role));
  }
  engine.set_fault_injector(nullptr);
  return result;
}

TEST(SelfHealing, CrashRecoveryIsLosslessAndBitwiseOnBothEngines) {
  // THE acceptance test: rank 4 dies mid-run; the buddy replays its
  // envelope onto the spare and every survivor rolls back to the same
  // generation. The resumed trajectory — positions, velocities, energies,
  // every accepted step — must equal the undisturbed run bit for bit, with
  // zero particles lost, on SeqEngine and ThreadEngine alike.
  constexpr int kSteps = 25;
  const ParallelMdConfig config = healing_config(/*buddy_every=*/5,
                                                 /*spares=*/1);

  sim::SeqEngine clean_engine(10);
  const HealResult clean = run_healing(clean_engine, "", kSteps, config);
  ASSERT_EQ(clean.recovery.rollbacks, 0u);
  ASSERT_GT(clean.recovery.generations, 0u);
  ASSERT_GT(clean.recovery.checkpoint_bytes, 0u);

  sim::SeqEngine seq(10);
  const HealResult crashed = run_healing(seq, "crash=4@0.02", kSteps, config);
  sim::ThreadEngine thread(10);
  const HealResult crashed_mt =
      run_healing(thread, "crash=4@0.02", kSteps, config);

  for (const HealResult* r : {&crashed, &crashed_mt}) {
    EXPECT_EQ(r->recovery.failovers, 1u);
    EXPECT_EQ(r->recovery.roles_retired, 0u);
    EXPECT_GE(r->recovery.rollbacks, 1u);
    EXPECT_GT(r->recovery.particles_recovered, 0u);
    EXPECT_EQ(r->epoch, 1);
    EXPECT_EQ(r->alive_roles, 9);
    EXPECT_TRUE(r->ownership_ok);
  }

  // Lossless: every accepted step of the recovered runs equals the clean
  // run's bitwise — same energies, same particle count, same DLB transfers.
  expect_particles_bitwise(clean.particles, crashed.particles, "seq recovery");
  expect_particles_bitwise(clean.particles, crashed_mt.particles,
                           "thread recovery");
  ASSERT_EQ(crashed.stats.size(), clean.stats.size());
  for (std::size_t i = 0; i < clean.stats.size(); ++i) {
    EXPECT_EQ(crashed.stats[i].potential_energy,
              clean.stats[i].potential_energy)
        << "step " << i;
    EXPECT_EQ(crashed.stats[i].kinetic_energy, clean.stats[i].kinetic_energy);
    EXPECT_EQ(crashed.stats[i].total_particles,
              clean.stats[i].total_particles);
    EXPECT_EQ(crashed.stats[i].transfers, clean.stats[i].transfers);
    EXPECT_EQ(crashed_mt.stats[i].potential_energy,
              clean.stats[i].potential_energy);
    // The recovered runs never report a shrunken machine: the failover
    // completes inside step(), so accepted steps always see 9 live roles.
    EXPECT_EQ(crashed.stats[i].live_ranks, 9);
  }
}

TEST(SelfHealing, CrashAtEveryStepSweepConservesEverything) {
  // Kill rank 4 inside each step of the run in turn (one run per crash
  // time) and assert the recovery contract at every single crash position:
  // full rank count restored via the spare, zero particles lost, ownership
  // consistent, energies finite throughout.
  constexpr int kSteps = 10;
  const ParallelMdConfig config = healing_config(/*buddy_every=*/3,
                                                 /*spares=*/1);

  // Probe run: record the virtual time at which each step completes, so the
  // sweep can aim a crash into every step's interior.
  std::vector<double> step_end;
  {
    sim::SeqEngine engine(10);
    const auto initial = chaos_gas();
    ParallelMd md(EngineConfig{.engine = &engine, .box = chaos_box(),
                               .initial = &initial},
                  config);
    step_end.push_back(engine.makespan());  // construction
    for (int i = 0; i < kSteps; ++i) {
      md.step();
      step_end.push_back(engine.makespan());
    }
  }

  const std::int64_t expected_particles = 300;
  for (int k = 1; k <= kSteps; ++k) {
    const double at = 0.5 * (step_end[static_cast<std::size_t>(k - 1)] +
                             step_end[static_cast<std::size_t>(k)]);
    SCOPED_TRACE("crash during step " + std::to_string(k) + " at t=" +
                 std::to_string(at));
    sim::SeqEngine engine(10);
    const HealResult r = run_healing(
        engine, "crash=4@" + std::to_string(at), kSteps, config);

    EXPECT_EQ(r.recovery.failovers, 1u);
    EXPECT_EQ(r.recovery.roles_retired, 0u);
    EXPECT_EQ(r.alive_roles, 9);
    EXPECT_EQ(r.epoch, 1);
    EXPECT_TRUE(r.ownership_ok);
    EXPECT_EQ(static_cast<std::int64_t>(r.particles.size()),
              expected_particles)
        << "particles lost";
    for (const auto& s : r.stats) {
      ASSERT_TRUE(std::isfinite(s.potential_energy));
      EXPECT_EQ(s.total_particles, expected_particles);
      EXPECT_EQ(s.live_ranks, 9);
    }
  }
}

TEST(SelfHealing, RetireWithoutSparesStillConservesParticles) {
  // No spare left: the dead role retires and survivors adopt its columns.
  // The particles are NOT lost — the buddy's envelope replays them onto the
  // adopters. Bitwise equality cannot hold on this path (the decomposition
  // changed shape), but conservation must.
  constexpr int kSteps = 25;
  const ParallelMdConfig config = healing_config(/*buddy_every=*/5,
                                                 /*spares=*/0);
  sim::SeqEngine engine(9);
  const HealResult r = run_healing(engine, "crash=4@0.02", kSteps, config);

  EXPECT_EQ(r.recovery.failovers, 0u);
  EXPECT_EQ(r.recovery.roles_retired, 1u);
  EXPECT_GT(r.recovery.particles_recovered, 0u);
  EXPECT_EQ(r.alive_roles, 8);
  EXPECT_EQ(r.epoch, 1);
  EXPECT_TRUE(r.ownership_ok);
  EXPECT_EQ(static_cast<std::int64_t>(r.particles.size()), 300)
      << "the dead role's particles must be replayed from its buddy";
  for (const auto& s : r.stats) {
    ASSERT_TRUE(std::isfinite(s.potential_energy));
    EXPECT_EQ(s.total_particles, 300);
  }
  // Every survivor's ownership view has walked rank 4's columns to an
  // adopter.
  ASSERT_EQ(r.views.size(), 9u);
  for (int role = 0; role < 9; ++role) {
    EXPECT_TRUE(role == 4 || r.views[role].columns_of(4).empty())
        << "rank " << role << " still thinks rank 4 owns columns";
  }
}

TEST(SelfHealing, WatchdogRollsBackSilentCorruptionBitwise) {
  // A transient SDC burst scrambles rank 4's velocities mid-run. The
  // velocity alarm rides the max collective to the watchdog, which rolls
  // every role back to the last buddy generation; by the time the replay
  // reaches the burst window again the (virtual-time-keyed) burst is over.
  // The final state must equal the clean run bitwise — the corrupted
  // attempt leaves no trace.
  constexpr int kSteps = 20;
  ParallelMdConfig config = healing_config(/*buddy_every=*/4, /*spares=*/0);
  config.fault_tolerance.healing.max_rollbacks = 10;  // never escalate here

  sim::SeqEngine clean_engine(9);
  const HealResult clean = run_healing(clean_engine, "", kSteps, config);

  sim::SeqEngine engine(9);
  const HealResult r =
      run_healing(engine, "sdc=4@0.02-0.03x200", kSteps, config);

  EXPECT_GE(r.recovery.rollbacks, 1u) << "the corruption was never caught";
  EXPECT_EQ(r.recovery.failovers, 0u);
  EXPECT_EQ(r.recovery.declared_dead, 0u);
  EXPECT_EQ(r.alive_roles, 9);
  expect_particles_bitwise(clean.particles, r.particles, "sdc rollback");
  for (std::size_t i = 0; i < clean.stats.size(); ++i) {
    EXPECT_EQ(r.stats[i].potential_energy, clean.stats[i].potential_energy)
        << "step " << i;
    EXPECT_EQ(r.stats[i].kinetic_energy, clean.stats[i].kinetic_energy);
  }
}

TEST(SelfHealing, WatchdogEscalatesPersistentCorruptionToFailover) {
  // Rank 4 produces corrupt state on *every* step from t=0.02 on: rollback
  // alone can never outrun it. After max_rollbacks consecutive rollbacks
  // blaming the same role, the watchdog declares it dead and the failover
  // path takes over — the spare inherits the role and, because SDC is keyed
  // on the dead physical rank, the corruption dies with it.
  constexpr int kSteps = 25;
  const ParallelMdConfig config = healing_config(/*buddy_every=*/4,
                                                 /*spares=*/1);
  sim::SeqEngine engine(10);
  const HealResult r =
      run_healing(engine, "sdc=4@0.02-1e30x200", kSteps, config);

  EXPECT_GE(r.recovery.rollbacks, 2u);
  EXPECT_EQ(r.recovery.declared_dead, 1u);
  EXPECT_EQ(r.recovery.failovers, 1u);
  EXPECT_EQ(r.epoch, 1);
  EXPECT_EQ(r.alive_roles, 9);
  EXPECT_TRUE(r.ownership_ok);
  EXPECT_EQ(static_cast<std::int64_t>(r.particles.size()), 300);
  for (const auto& s : r.stats) {
    ASSERT_TRUE(std::isfinite(s.potential_energy));
    EXPECT_EQ(s.total_particles, 300);
  }
}

TEST(SelfHealing, RecoveryCountersDeterministicAcrossIdenticalRuns) {
  // Two identical seeded crash-recovery runs on ThreadEngine must agree on
  // every recovery counter — the assertion the CI chaos job repeats and
  // diffs across two processes via the marker line below.
  constexpr int kSteps = 15;
  const ParallelMdConfig config = healing_config(/*buddy_every=*/5,
                                                 /*spares=*/1);
  auto run_once = [&]() {
    sim::ThreadEngine engine(10);
    return run_healing(engine, "seed=7,drop=0.03,crash=4@0.02", kSteps,
                       config);
  };
  const HealResult a = run_once();
  const HealResult b = run_once();

  EXPECT_EQ(a.recovery.checkpoint_bytes, b.recovery.checkpoint_bytes);
  EXPECT_EQ(a.recovery.generations, b.recovery.generations);
  EXPECT_EQ(a.recovery.rollbacks, b.recovery.rollbacks);
  EXPECT_EQ(a.recovery.failovers, b.recovery.failovers);
  EXPECT_EQ(a.recovery.particles_recovered, b.recovery.particles_recovered);
  EXPECT_EQ(a.epoch, b.epoch);
  expect_particles_bitwise(a.particles, b.particles, "repeat run");

  // Stable marker line for the CI chaos job (same pattern as
  // CHAOS-COUNTERS above).
  std::printf("RECOVERY-COUNTERS checkpoint_bytes=%llu generations=%llu "
              "rollbacks=%llu failovers=%llu declared_dead=%llu "
              "particles_recovered=%llu epoch=%d\n",
              static_cast<unsigned long long>(a.recovery.checkpoint_bytes),
              static_cast<unsigned long long>(a.recovery.generations),
              static_cast<unsigned long long>(a.recovery.rollbacks),
              static_cast<unsigned long long>(a.recovery.failovers),
              static_cast<unsigned long long>(a.recovery.declared_dead),
              static_cast<unsigned long long>(a.recovery.particles_recovered),
              a.epoch);
}

TEST(SelfHealing, UnsurvivableCrashesFailLoudly) {
  // Two classes of unsurvivable failure must raise RecoveryError, never
  // limp on with silent corruption: a crash before the first replication
  // completes, and a role dying together with its buddy (both copies of
  // one envelope gone).
  const ParallelMdConfig config = healing_config(/*buddy_every=*/5,
                                                 /*spares=*/2);
  {
    // Rank 4 is dead before construction even finishes: generation 0 never
    // covers it.
    sim::FaultInjector injector(sim::FaultPlan::parse("crash=4@0"));
    sim::SeqEngine engine(11);
    engine.set_fault_injector(&injector);
    const auto initial = chaos_gas();
    ParallelMd md(EngineConfig{.engine = &engine, .box = chaos_box(),
                               .initial = &initial},
                  config);
    EXPECT_THROW(
        {
          for (int i = 0; i < 10; ++i) md.step();
        },
        RecoveryError);
    engine.set_fault_injector(nullptr);
  }
  {
    // Role 4's buddy is its +1-column torus neighbour, role 5. Killing both
    // in one instant destroys role 4's envelope everywhere.
    sim::FaultInjector injector(
        sim::FaultPlan::parse("crash=4@0.02,crash=5@0.02"));
    sim::SeqEngine engine(11);
    engine.set_fault_injector(&injector);
    const auto initial = chaos_gas();
    ParallelMd md(EngineConfig{.engine = &engine, .box = chaos_box(),
                               .initial = &initial},
                  config);
    EXPECT_THROW(
        {
          for (int i = 0; i < 30; ++i) md.step();
        },
        RecoveryError);
    engine.set_fault_injector(nullptr);
  }
}

}  // namespace
}  // namespace pcmd::ddm
