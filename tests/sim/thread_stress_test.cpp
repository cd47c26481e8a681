// TSan-targeted stress for the rank pool behind ThreadEngine: many short
// phases (barrier churn), exception paths (the pool must survive a throwing
// phase body and keep its runners, and the lowest throwing rank's exception
// must surface whatever the timing), more ranks than runners, and concurrent
// all-to-all mailbox traffic. The suite is labelled `tsan` in
// tests/CMakeLists.txt so the sanitizer matrix runs it under
// -fsanitize=thread.
#include "sim/checker.hpp"
#include "sim/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pcmd::sim {
namespace {

Buffer payload_of(double value) {
  Packer packer;
  packer.put<double>(value);
  return packer.take();
}

TEST(ThreadStress, ManyShortPhases) {
  // Phase wake/sleep churn: the generation-counter barrier runs 500 times
  // with near-empty bodies, the worst case for pool synchronisation races.
  ThreadEngine engine(8);
  std::atomic<int> executions{0};
  for (int phase = 0; phase < 500; ++phase) {
    engine.run_phase([&](Comm& comm) {
      comm.advance(1e-9);
      executions.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(executions.load(), 8 * 500);
  EXPECT_EQ(engine.current_phase(), 500);
}

TEST(ThreadStress, PoolSurvivesThrowingPhaseBody) {
  ThreadEngine engine(6);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(engine.run_phase([round](Comm& comm) {
      if (comm.rank() == round % comm.size()) {
        throw std::runtime_error("phase body failure");
      }
      comm.advance(1e-9);
    }),
                 std::runtime_error);
    // The pool must be fully reusable right after the rethrow.
    std::atomic<int> alive{0};
    engine.run_phase([&](Comm&) { alive.fetch_add(1); });
    EXPECT_EQ(alive.load(), 6);
  }
}

std::string thrown_by(Engine& engine,
                      const std::function<void(Comm&)>& body) {
  try {
    engine.run_phase(body);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "nothing";
}

TEST(ThreadStress, LowestRankExceptionWins) {
  // Every rank throws; rank 0's exception must surface, and the pool must
  // not deadlock waiting for the others.
  ThreadEngine engine(8);
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(thrown_by(engine,
                        [](Comm& comm) {
                          throw std::runtime_error(
                              "rank " + std::to_string(comm.rank()));
                        }),
              "rank 0");
    std::atomic<int> alive{0};
    engine.run_phase([&](Comm&) { alive.fetch_add(1); });
    EXPECT_EQ(alive.load(), 8);
  }
}

TEST(ThreadStress, LowerRankThrowingLaterStillWins) {
  // Rank 3 throws at once; rank 0 throws only after it has seen rank 3 run
  // and a further pause, so rank 3's exception is the first one caught. The
  // rule is still rank 0's. With a single runner rank 3 cannot run before
  // rank 0 finishes, so the wait is bounded.
  ThreadEngine engine(4);
  std::atomic<bool> rank3_ran{false};
  EXPECT_EQ(thrown_by(engine,
                      [&](Comm& comm) {
                        if (comm.rank() == 3) {
                          rank3_ran.store(true);
                          throw std::runtime_error("rank 3");
                        }
                        if (comm.rank() != 0) return;
                        const auto give_up = std::chrono::steady_clock::now() +
                                             std::chrono::seconds(2);
                        while (!rank3_ran.load() &&
                               std::chrono::steady_clock::now() < give_up) {
                          std::this_thread::yield();
                        }
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                        throw std::runtime_error("rank 0");
                      }),
            "rank 0");
  EXPECT_TRUE(rank3_ran.load());
}

TEST(ThreadStress, MoreRanksThanRunnersEachRunOncePerPhase) {
  // 64 ranks exceed the runner count on any host below 64 cores. Every live
  // rank must run exactly once per phase, crashed ranks never, and the
  // engine must stay usable after a throwing phase.
  constexpr int kRanks = 64;
  ThreadEngine engine(kRanks);
  std::vector<std::atomic<int>> runs(kRanks);
  const auto run_counted_phase = [&] {
    for (auto& count : runs) count.store(0);
    engine.run_phase([&](Comm& comm) {
      runs[static_cast<std::size_t>(comm.rank())].fetch_add(1);
    });
    std::vector<int> counts;
    for (const auto& count : runs) counts.push_back(count.load());
    return counts;
  };
  std::vector<int> expected(kRanks, 1);
  for (int phase = 0; phase < 50; ++phase) {
    ASSERT_EQ(run_counted_phase(), expected) << "phase " << phase;
  }
  for (const int dead : {0, 17, 63}) {
    engine.declare_dead(dead);
    expected[dead] = 0;
  }
  for (int phase = 0; phase < 50; ++phase) {
    ASSERT_EQ(run_counted_phase(), expected) << "phase " << phase;
  }
  EXPECT_THROW(engine.run_phase([](Comm& comm) {
    if (comm.rank() % 5 == 1) throw std::runtime_error("phase body failure");
  }),
               std::runtime_error);
  EXPECT_EQ(run_counted_phase(), expected);
}

int process_threads() {
  const std::filesystem::path tasks("/proc/self/task");
  std::error_code error;
  if (!std::filesystem::is_directory(tasks, error)) return -1;
  return static_cast<int>(std::distance(
      std::filesystem::directory_iterator(tasks), {}));
}

TEST(ThreadStress, RunnersNeverOutnumberCores) {
  // TSan's runtime starts a thread of its own at the first thread creation;
  // create one first so that thread is already in the baseline.
  std::thread([] {}).join();
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this host";
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  {
    SeqEngine seq(64);
    EXPECT_EQ(process_threads(), before);
  }
  ThreadEngine engine(64);
  engine.run_phase([](Comm& comm) { comm.advance(1e-9); });
  EXPECT_LE(process_threads() - before, cores - 1);
}

TEST(ThreadStress, ConcurrentAllToAllMailboxTraffic) {
  // Every rank sends to every rank each round; mailboxes see concurrent
  // producers while consumers drain the previous round.
  const int ranks = 8;
  ThreadEngine engine(ranks);
  for (int round = 0; round < 30; ++round) {
    engine.run_phase([round, ranks](Comm& comm) {
      for (int dst = 0; dst < ranks; ++dst) {
        comm.send(dst, round, payload_of(comm.rank() * 1000.0 + dst));
      }
    });
    engine.run_phase([round, ranks](Comm& comm) {
      double sum = 0.0;
      for (int src = 0; src < ranks; ++src) {
        Unpacker unpacker(comm.recv(src, round));
        sum += unpacker.get<double>();
      }
      // Sum of src*1000 + my rank over all sources.
      const double expected =
          1000.0 * (ranks * (ranks - 1) / 2) + ranks * comm.rank();
      if (sum != expected) throw std::logic_error("corrupted traffic");
    });
  }
  SUCCEED();
}

TEST(ThreadStress, CollectivesUnderConcurrency) {
  const int ranks = 12;
  ThreadEngine engine(ranks);
  for (int round = 0; round < 50; ++round) {
    engine.run_phase([](Comm& comm) {
      comm.advance(1e-7 * (comm.rank() + 1));
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    });
    engine.run_phase([ranks](Comm& comm) {
      const double total = comm.reduce_end();
      if (total != static_cast<double>(ranks)) {
        throw std::logic_error("bad reduction");
      }
    });
  }
  SUCCEED();
}

#if PCMD_CHECKER_ENABLED
TEST(ThreadStress, CheckerHooksRaceFree) {
  // All ranks hammer the checker concurrently; under TSan this validates the
  // checker's internal locking.
  ProtocolChecker checker;
  ThreadEngine engine(8);
  engine.set_checker(&checker);
  for (int round = 0; round < 20; ++round) {
    engine.run_phase([round](Comm& comm) {
      for (int dst = 0; dst < comm.size(); ++dst) {
        comm.send(dst, round, payload_of(1.0));
      }
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    });
    engine.run_phase([round](Comm& comm) {
      for (int src = 0; src < comm.size(); ++src) {
        (void)comm.recv(src, round);
      }
      (void)comm.reduce_end();
    });
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().to_string();
  engine.set_checker(nullptr);
}
#endif  // PCMD_CHECKER_ENABLED

}  // namespace
}  // namespace pcmd::sim
