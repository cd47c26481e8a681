// Unit battery for the fault-injection subsystem: plan grammar, injector
// purity/determinism, stall and crash semantics, the recv deadline
// primitive, and the reliable channel masking a lossy link.
#include "sim/fault.hpp"

#include "sim/comm.hpp"
#include "sim/reliable.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pcmd::sim {
namespace {

TEST(FaultPlan, ParsesFullGrammar) {
  const auto plan = FaultPlan::parse(
      "seed=7,drop=0.05,corrupt=0.01,delay=0.1:2e-4,degrade=3-4x8,"
      "stall=2@0.1-0.5x4,crash=5@0.25");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.delay_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.delay_seconds, 2e-4);
  ASSERT_EQ(plan.degraded_links.size(), 1u);
  EXPECT_EQ(plan.degraded_links[0].rank_a, 3);
  EXPECT_EQ(plan.degraded_links[0].rank_b, 4);
  EXPECT_DOUBLE_EQ(plan.degraded_links[0].factor, 8.0);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].rank, 2);
  EXPECT_DOUBLE_EQ(plan.stalls[0].from, 0.1);
  EXPECT_DOUBLE_EQ(plan.stalls[0].until, 0.5);
  EXPECT_DOUBLE_EQ(plan.stalls[0].factor, 4.0);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 5);
  EXPECT_DOUBLE_EQ(plan.crashes[0].at, 0.25);
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.transient_only());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const char* spec =
      "seed=11,drop=0.2,corrupt=0.1,delay=0.3:0.0001,degrade=0-1x2,"
      "stall=1@0-1x3,crash=2@0.5";
  const auto plan = FaultPlan::parse(spec);
  const auto reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(plan.to_string(), reparsed.to_string());
  EXPECT_EQ(reparsed.seed, 11u);
  EXPECT_DOUBLE_EQ(reparsed.drop_rate, 0.2);
  ASSERT_EQ(reparsed.crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(reparsed.crashes[0].at, 0.5);
}

TEST(FaultPlan, EmptyPlanIsEmpty) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_TRUE(FaultPlan::parse("seed=99").empty());
  EXPECT_FALSE(FaultPlan::parse("drop=0.1").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("drop="), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("degrade=3x8"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash=5"), std::invalid_argument);
}

TEST(FaultInjector, DecisionsArePureFunctionsOfTheMessageKey) {
  const auto plan = FaultPlan::parse("seed=42,drop=0.3,corrupt=0.2,"
                                     "delay=0.25:1e-4");
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  int faults_seen = 0;
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      for (int tag = 1; tag <= 3; ++tag) {
        for (int phase = 0; phase < 5; ++phase) {
          for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
            const auto fa = a.send_fault(src, dst, tag, phase, attempt);
            // Repeated queries and a second injector agree exactly.
            const auto fa2 = a.send_fault(src, dst, tag, phase, attempt);
            const auto fb = b.send_fault(src, dst, tag, phase, attempt);
            for (const auto& f : {fa2, fb}) {
              EXPECT_EQ(fa.drop, f.drop);
              EXPECT_EQ(fa.corrupt, f.corrupt);
              EXPECT_EQ(fa.corrupt_byte, f.corrupt_byte);
              EXPECT_EQ(fa.corrupt_mask, f.corrupt_mask);
              EXPECT_EQ(fa.extra_delay, f.extra_delay);
            }
            if (fa.corrupt) {
              EXPECT_NE(fa.corrupt_mask, 0)
                  << "a zero XOR mask would be a no-op corruption";
            }
            if (fa.drop || fa.corrupt || fa.extra_delay > 0.0) ++faults_seen;
          }
        }
      }
    }
  }
  // With these rates the sweep must actually exercise each fault path.
  EXPECT_GT(faults_seen, 50);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSchedules) {
  const FaultInjector a(FaultPlan::parse("seed=1,drop=0.5"));
  const FaultInjector b(FaultPlan::parse("seed=2,drop=0.5"));
  int differing = 0;
  for (int key = 0; key < 200; ++key) {
    if (a.send_fault(0, 1, key, 0, 0).drop !=
        b.send_fault(0, 1, key, 0, 0).drop) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 20);
}

TEST(FaultInjector, StallStretchesOnlyTheWindowOverlap) {
  const auto plan = FaultPlan::parse("stall=1@1-2x3");
  const FaultInjector injector(plan);
  // Fully inside the window: [1.0, 1.5) overlaps 0.5, factor 3 -> extra 1.0.
  EXPECT_DOUBLE_EQ(injector.stall_extra(1, 1.0, 0.5), 1.0);
  // Straddles the window start: only the inside part stretches.
  EXPECT_DOUBLE_EQ(injector.stall_extra(1, 0.5, 1.0), 1.0);
  // Outside the window or on another rank: no stretch.
  EXPECT_DOUBLE_EQ(injector.stall_extra(1, 2.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(injector.stall_extra(0, 1.0, 0.5), 0.0);
}

TEST(FaultInjector, CrashIsKeyedOnVirtualTime) {
  const FaultInjector injector(FaultPlan::parse("crash=2@0.25"));
  ASSERT_TRUE(injector.crash_time(2).has_value());
  EXPECT_DOUBLE_EQ(*injector.crash_time(2), 0.25);
  EXPECT_FALSE(injector.crash_time(0).has_value());
  EXPECT_FALSE(injector.crashed(2, 0.1));
  EXPECT_TRUE(injector.crashed(2, 0.25));
  EXPECT_TRUE(injector.crashed(2, 9.0));
  EXPECT_FALSE(injector.crashed(1, 9.0));
}

TEST(Comm, RecvDeadlineDeliversOrTimesOutDeterministically) {
  SeqEngine engine(2);
  engine.run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 7, Buffer{1, 2, 3});
  });
  engine.run_phase([](Comm& comm) {
    if (comm.rank() != 1) return;
    // Message present: delivered; the deadline does not fire.
    const auto hit = comm.recv_deadline(0, 7, 1e-3);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, (Buffer{1, 2, 3}));
    // Nothing else pending: the deadline expires and charges exactly the
    // timeout to the virtual clock.
    const double before = comm.clock();
    const auto miss = comm.recv_deadline(0, 8, 1e-3);
    EXPECT_FALSE(miss.has_value());
    EXPECT_DOUBLE_EQ(comm.clock(), before + 1e-3);
  });
  EXPECT_EQ(engine.counters(1).recv_timeouts, 1u);
  EXPECT_EQ(engine.counters(0).recv_timeouts, 0u);
}

TEST(Engine, CrashedRankStopsExecutingAtThePhaseBoundary) {
  FaultInjector injector(FaultPlan::parse("crash=2@0"));
  SeqEngine engine(3);
  engine.set_fault_injector(&injector);
  std::vector<int> ran(3, 0);
  engine.run_phase([&](Comm& comm) { ran[comm.rank()] += 1; });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 0}));
  EXPECT_FALSE(engine.alive(2));
  EXPECT_TRUE(engine.alive(0));
  EXPECT_EQ(engine.alive_count(), 2);
}

TEST(Engine, FaultPlanNamingARankOutsideTheEngineIsRejected) {
  SeqEngine engine(10);  // e.g. 9 PEs plus one spare
  const auto rejected = [&](const FaultPlan& plan, const std::string& kind,
                            int rank) {
    FaultInjector injector(plan);
    try {
      engine.set_fault_injector(&injector);
      ADD_FAILURE() << kind << " of rank " << rank << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(kind + " names rank " + std::to_string(rank)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("0 to 9"), std::string::npos) << what;
    }
    EXPECT_EQ(engine.fault_injector(), nullptr);
  };
  FaultPlan crash;
  crash.crashes.push_back({99, 0.01});
  rejected(crash, "crash", 99);
  FaultPlan stall;
  stall.stalls.push_back({-1, 0.0, 1e30, 6.0});
  rejected(stall, "stall", -1);
  FaultPlan sdc;
  sdc.sdcs.push_back({10, 0.0, 1.0, 2.0});
  rejected(sdc, "sdc", 10);
  FaultPlan link;
  link.degraded_links.push_back({3, 10, 8.0});
  rejected(link, "degraded link", 10);

  // The last rank (a spare) is a rank, and rank_b == -1 means every link
  // of rank_a.
  FaultInjector in_range(
      FaultPlan::parse("crash=9@0.01,degrade=3--1x8,stall=0@0-1x2"));
  EXPECT_NO_THROW(engine.set_fault_injector(&in_range));
  engine.set_fault_injector(nullptr);
}

TEST(ReliableChannel, MasksDropsAndCorruptionOnALossyLink) {
  FaultInjector injector(FaultPlan::parse("seed=3,drop=0.2,corrupt=0.15"));
  SeqEngine engine(2);
  engine.set_fault_injector(&injector);
  std::vector<ReliableChannel> channels(2);

  const int rounds = 60;
  for (int round = 0; round < rounds; ++round) {
    Buffer payload(17);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(round + 3 * i);
    }
    engine.run_phase([&](Comm& comm) {
      if (comm.rank() == 0) channels[0].send(comm, 1, 5, payload);
    });
    engine.run_phase([&](Comm& comm) {
      if (comm.rank() != 1) return;
      const Buffer got = channels[1].recv(comm, 0, 5);
      ASSERT_EQ(got, payload) << "round " << round;
    });
  }
  // The link was genuinely lossy and the channel genuinely retried.
  const auto fc = injector.counters();
  EXPECT_GT(fc.messages_dropped + fc.messages_corrupted, 0u);
  EXPECT_GT(channels[0].counters().retransmissions, 0u);
  EXPECT_EQ(channels[0].counters().sends, static_cast<std::uint64_t>(rounds));
}

TEST(ReliableChannel, RecvDeadlineDoesNotAdvanceTheStream) {
  SeqEngine engine(2);
  std::vector<ReliableChannel> channels(2);
  engine.run_phase([&](Comm& comm) {
    if (comm.rank() != 1) return;
    // Nothing sent yet: deadline expires, stream position unchanged.
    EXPECT_FALSE(channels[1].recv_deadline(comm, 0, 9, 1e-4).has_value());
  });
  engine.run_phase([&](Comm& comm) {
    if (comm.rank() == 0) channels[0].send(comm, 1, 9, Buffer{42});
  });
  engine.run_phase([&](Comm& comm) {
    if (comm.rank() != 1) return;
    const auto got = channels[1].recv_deadline(comm, 0, 9, 1e-4);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, Buffer{42});
  });
  EXPECT_EQ(channels[1].counters().recv_timeouts, 1u);
}

TEST(ReliableChannel, GivesUpAfterMaxAttempts) {
  // Certain drop: every attempt is swallowed; the sender must throw rather
  // than spin forever.
  FaultInjector injector(FaultPlan::parse("seed=5,drop=1"));
  SeqEngine engine(2);
  engine.set_fault_injector(&injector);
  ReliablePolicy policy;
  policy.max_attempts = 4;
  ReliableChannel channel(policy);
  engine.run_phase([&](Comm& comm) {
    if (comm.rank() != 0) return;
    EXPECT_THROW(channel.send(comm, 1, 2, Buffer{9}), ProtocolError);
  });
  EXPECT_EQ(channel.counters().retransmissions, 3u);  // attempts 2..4
}

TEST(ReliableChannel, ExhaustionRaisesTypedPeerDeadError) {
  // The give-up is a *typed* error carrying the suspect peer and tag, so the
  // membership layer can declare that peer dead instead of aborting.
  FaultInjector injector(FaultPlan::parse("seed=5,drop=1"));
  SeqEngine engine(3);
  engine.set_fault_injector(&injector);
  ReliablePolicy policy;
  policy.max_attempts = 3;
  ReliableChannel channel(policy);
  engine.run_phase([&](Comm& comm) {
    if (comm.rank() != 0) return;
    try {
      channel.send(comm, 2, 7, Buffer{1});
      FAIL() << "expected PeerDeadError";
    } catch (const PeerDeadError& e) {
      EXPECT_EQ(e.peer(), 2);
      EXPECT_EQ(e.tag(), 7);
      EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
    }
  });
}

}  // namespace
}  // namespace pcmd::sim
