// Engine semantics tests, parameterised over both backends: every behaviour
// must be identical for SeqEngine and ThreadEngine.
#include "sim/comm.hpp"
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

namespace pcmd::sim {
namespace {

enum class Backend { kSeq, kThread };

std::unique_ptr<Engine> make_engine(Backend backend, int ranks,
                                    MachineModel model = MachineModel::t3e()) {
  if (backend == Backend::kSeq) {
    return std::make_unique<SeqEngine>(ranks, std::move(model));
  }
  return std::make_unique<ThreadEngine>(ranks, std::move(model));
}

class EngineTest : public ::testing::TestWithParam<Backend> {};

TEST_P(EngineTest, RunsBodyOncePerRank) {
  auto engine = make_engine(GetParam(), 4);
  std::vector<int> hits(4, 0);
  std::mutex mutex;
  engine->run_phase([&](Comm& comm) {
    std::lock_guard lock(mutex);
    hits[comm.rank()]++;
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));
}

TEST_P(EngineTest, AdvanceAccumulatesClock) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) { comm.advance(1.5); });
  engine->run_phase([](Comm& comm) { comm.advance(0.5); });
  EXPECT_DOUBLE_EQ(engine->clock(0), 2.0);
  EXPECT_DOUBLE_EQ(engine->clock(1), 2.0);
  EXPECT_DOUBLE_EQ(engine->counters(0).compute_seconds, 2.0);
}

TEST_P(EngineTest, AdvanceRejectsNegative) {
  auto engine = make_engine(GetParam(), 1);
  EXPECT_THROW(
      engine->run_phase([](Comm& comm) { comm.advance(-1.0); }),
      std::invalid_argument);
}

TEST_P(EngineTest, SendThenRecvNextPhase) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      Packer p;
      p.put<int>(123);
      comm.send(1, /*tag=*/7, p.take());
    }
  });
  int received = 0;
  std::mutex mutex;
  engine->run_phase([&](Comm& comm) {
    if (comm.rank() == 1) {
      Unpacker u(comm.recv(0, 7));
      std::lock_guard lock(mutex);
      received = u.get<int>();
    }
  });
  EXPECT_EQ(received, 123);
}

TEST_P(EngineTest, RecvInSamePhaseAsSendThrows) {
  auto engine = make_engine(GetParam(), 2);
  // Rank 0 sends in this phase; rank 1 tries to receive in the same phase.
  // The BSP visibility rule forbids it regardless of execution order.
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      Packer p;
      p.put<int>(1);
      comm.send(1, 0, p.take());
    } else {
      comm.recv(0, 0);
    }
  }),
               ProtocolError);
}

TEST_P(EngineTest, RecvWithoutSendThrows) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm&) {});
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.recv(1, 99);
  }),
               ProtocolError);
}

TEST_P(EngineTest, RecvFromDeadRankNamesTheDeadPeer) {
  // No message can come from a crashed rank: the receive reports the dead
  // sender, not the phase order, and stays a ProtocolError for old callers.
  auto engine = make_engine(GetParam(), 3);
  engine->declare_dead(2);
  try {
    engine->run_phase([](Comm& comm) {
      if (comm.rank() == 0) comm.recv(2, 7);
    });
    FAIL() << "expected PeerDeadError";
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.peer(), 2);
    EXPECT_EQ(e.tag(), 7);
    EXPECT_EQ(std::string(e.what()),
              "Comm::recv: rank 2 is dead, so no message tag 7 reaches rank "
              "0 in phase 1");
  }
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) comm.recv(2, 7);
  }),
               ProtocolError);
}

TEST_P(EngineTest, TryRecvReturnsNulloptWhenEmpty) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    EXPECT_FALSE(comm.try_recv(0, 5).has_value());
  });
}

TEST_P(EngineTest, HasMessageAndSources) {
  auto engine = make_engine(GetParam(), 3);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() != 2) {
      Packer p;
      p.put<int>(comm.rank());
      comm.send(2, 4, p.take());
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 2) {
      EXPECT_TRUE(comm.has_message(0, 4));
      EXPECT_TRUE(comm.has_message(1, 4));
      EXPECT_FALSE(comm.has_message(0, 5));
      EXPECT_EQ(comm.sources_with(4), (std::vector<int>{0, 1}));
      comm.recv(0, 4);
      comm.recv(1, 4);
    }
  });
}

TEST_P(EngineTest, MessagesMatchedByTagAndSourceInFifoOrder) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int v : {10, 20}) {
        Packer p;
        p.put<int>(v);
        comm.send(1, 1, p.take());
      }
      Packer other;
      other.put<int>(99);
      comm.send(1, 2, other.take());
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) {
      Unpacker first(comm.recv(0, 1));
      EXPECT_EQ(first.get<int>(), 10);
      Unpacker tagged(comm.recv(0, 2));
      EXPECT_EQ(tagged.get<int>(), 99);
      Unpacker second(comm.recv(0, 1));
      EXPECT_EQ(second.get<int>(), 20);
    }
  });
}

TEST_P(EngineTest, RecvAdvancesClockToArrival) {
  MachineModel model;
  model.msg_latency = 1.0;
  model.hop_latency = 0.0;
  model.bandwidth = 1e30;
  model.collective_overhead = 0.0;
  auto engine = make_engine(GetParam(), 2, model);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.advance(5.0);
      comm.send(1, 0, Buffer{});
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) {
      comm.recv(0, 0);
      // Arrival = sender clock (5.0) + latency (1.0).
      EXPECT_DOUBLE_EQ(comm.clock(), 6.0);
      EXPECT_DOUBLE_EQ(comm.counters().comm_wait_seconds, 6.0);
    }
  });
}

TEST_P(EngineTest, RecvDoesNotRewindClock) {
  MachineModel model = MachineModel::ideal_network();
  auto engine = make_engine(GetParam(), 2, model);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, Buffer{});
    if (comm.rank() == 1) comm.advance(10.0);
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) {
      comm.recv(0, 0);
      EXPECT_DOUBLE_EQ(comm.clock(), 10.0);
      EXPECT_DOUBLE_EQ(comm.counters().comm_wait_seconds, 0.0);
    }
  });
}

TEST_P(EngineTest, SendToInvalidRankThrows) {
  auto engine = make_engine(GetParam(), 2);
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.send(5, 0, Buffer{});
  }),
               std::out_of_range);
}

TEST_P(EngineTest, CollectiveSumAcrossRanks) {
  auto engine = make_engine(GetParam(), 4);
  engine->run_phase([](Comm& comm) {
    comm.reduce_begin(ReduceOp::kSum, static_cast<double>(comm.rank() + 1));
  });
  std::vector<double> results(4, 0.0);
  std::mutex mutex;
  engine->run_phase([&](Comm& comm) {
    const double total = comm.reduce_end();
    std::lock_guard lock(mutex);
    results[comm.rank()] = total;
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST_P(EngineTest, CollectiveMaxAndMin) {
  auto engine = make_engine(GetParam(), 3);
  engine->run_phase([](Comm& comm) {
    const double v[2] = {static_cast<double>(comm.rank()),
                         static_cast<double>(comm.rank())};
    comm.collective_begin(ReduceOp::kMax, std::span<const double>(v, 1));
    comm.collective_begin(ReduceOp::kMin, std::span<const double>(v + 1, 1));
  });
  engine->run_phase([](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.collective_end().at(0), 2.0);
    EXPECT_DOUBLE_EQ(comm.collective_end().at(0), 0.0);
  });
}

TEST_P(EngineTest, CollectiveVectorWidth) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    const double v[3] = {1.0 * comm.rank(), 2.0 * comm.rank(),
                         3.0 * comm.rank()};
    comm.collective_begin(ReduceOp::kSum, v);
  });
  engine->run_phase([](Comm& comm) {
    const auto out = comm.collective_end();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
    EXPECT_DOUBLE_EQ(out[1], 2.0);
    EXPECT_DOUBLE_EQ(out[2], 3.0);
  });
}

TEST_P(EngineTest, CollectiveEndBeforeAllBeginThrows) {
  auto engine = make_engine(GetParam(), 2);
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.reduce_begin(ReduceOp::kSum, 1.0);
      comm.reduce_end();  // other rank has not begun yet
    } else {
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    }
  }),
               ProtocolError);
}

TEST_P(EngineTest, CollectiveSynchronisesClocks) {
  MachineModel model = MachineModel::ideal_network();
  auto engine = make_engine(GetParam(), 2, model);
  engine->run_phase([](Comm& comm) {
    comm.advance(comm.rank() == 0 ? 1.0 : 9.0);
    comm.barrier_begin();
  });
  engine->run_phase([](Comm& comm) {
    comm.barrier_end();
    EXPECT_DOUBLE_EQ(comm.clock(), 9.0);
  });
}

TEST_P(EngineTest, BarrierCostCharged) {
  MachineModel model;
  model.msg_latency = 1.0;
  model.collective_overhead = 0.0;
  model.bandwidth = 1e30;
  model.hop_latency = 0.0;
  auto engine = make_engine(GetParam(), 4, model);  // log2(4) = 2 rounds
  engine->run_phase([](Comm& comm) { comm.barrier_begin(); });
  engine->run_phase([](Comm& comm) {
    comm.barrier_end();
    EXPECT_DOUBLE_EQ(comm.clock(), 2.0);
  });
}

TEST_P(EngineTest, MakespanAndAlign) {
  auto engine = make_engine(GetParam(), 3, MachineModel::ideal_network());
  engine->run_phase([](Comm& comm) { comm.advance(1.0 * comm.rank()); });
  EXPECT_DOUBLE_EQ(engine->makespan(), 2.0);
  engine->align_clocks();
  EXPECT_DOUBLE_EQ(engine->clock(0), 2.0);
  EXPECT_DOUBLE_EQ(engine->clock(1), 2.0);
}

TEST_P(EngineTest, CountersTrackTraffic) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      Buffer b(100);
      comm.send(1, 0, std::move(b));
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) comm.recv(0, 0);
  });
  EXPECT_EQ(engine->counters(0).messages_sent, 1u);
  EXPECT_EQ(engine->counters(0).bytes_sent, 100u);
  EXPECT_EQ(engine->counters(1).messages_received, 1u);
  EXPECT_EQ(engine->counters(1).bytes_received, 100u);
}

TEST_P(EngineTest, MachineReportAggregates) {
  auto engine = make_engine(GetParam(), 2, MachineModel::ideal_network());
  engine->run_phase([](Comm& comm) { comm.advance(2.0); });
  const MachineReport report = machine_report(*engine);
  EXPECT_EQ(report.ranks, 2);
  EXPECT_DOUBLE_EQ(report.makespan, 2.0);
  EXPECT_DOUBLE_EQ(report.total_compute, 4.0);
  EXPECT_DOUBLE_EQ(report.efficiency(), 1.0);
}

TEST_P(EngineTest, ExceptionInBodyPropagates) {
  auto engine = make_engine(GetParam(), 2);
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST_P(EngineTest, RejectsZeroRanks) {
  EXPECT_THROW(make_engine(GetParam(), 0), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineTest,
                         ::testing::Values(Backend::kSeq, Backend::kThread),
                         [](const auto& info) {
                           return info.param == Backend::kSeq ? "Seq"
                                                              : "Thread";
                         });

// Cross-backend equivalence: the same SPMD program must produce identical
// clocks and counters on both engines, bit for bit.
TEST(EngineEquivalence, ClocksIdenticalAcrossBackends) {
  auto program = [](Engine& engine) {
    engine.run_phase([](Comm& comm) {
      comm.advance(0.25 * (comm.rank() + 1));
      const int dst = (comm.rank() + 1) % comm.size();
      Packer p;
      p.put<double>(comm.clock());
      comm.send(dst, 3, p.take());
    });
    engine.run_phase([](Comm& comm) {
      const int src = (comm.rank() + comm.size() - 1) % comm.size();
      comm.recv(src, 3);
      comm.reduce_begin(ReduceOp::kSum, comm.clock());
    });
    engine.run_phase([](Comm& comm) { comm.reduce_end(); });
  };
  SeqEngine seq(5);
  ThreadEngine thread(5);
  program(seq);
  program(thread);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(seq.clock(r), thread.clock(r)) << "rank " << r;
    EXPECT_EQ(seq.counters(r).compute_seconds,
              thread.counters(r).compute_seconds);
    EXPECT_EQ(seq.counters(r).messages_sent, thread.counters(r).messages_sent);
  }
}

}  // namespace
}  // namespace pcmd::sim
