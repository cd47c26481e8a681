// Engine-parity determinism battery: the same randomized SPMD program must
// produce bitwise-identical results on SeqEngine and ThreadEngine — virtual
// clocks, every rank counter, received payload digests, and the recorded
// trace event sequences. This is the guarantee that lets the rest of the
// suite validate physics on the cheap sequential engine and trust the
// threaded one.
#include "obs/collector.hpp"
#include "sim/comm.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pcmd::obs {
namespace {

using sim::Buffer;
using sim::Comm;
using sim::Engine;
using sim::RankCounters;

// Deterministic per-(seed, phase, rank) stream: both backends and both
// engines derive identical traffic no matter the execution order.
pcmd::Rng stream(std::uint64_t seed, int phase, int rank) {
  return pcmd::Rng(seed ^ (0x9e3779b97f4a7c15ull * (phase + 1)) ^
                   (0xd1b54a32d192ed03ull * (rank + 1)));
}

Buffer make_payload(pcmd::Rng& rng, std::size_t bytes) {
  Buffer payload(bytes);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  }
  return payload;
}

std::uint64_t fnv1a(std::uint64_t hash, const Buffer& bytes) {
  for (const auto b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct RunResult {
  std::vector<double> clocks;
  std::vector<RankCounters> counters;
  std::vector<std::uint64_t> digests;     // FNV over received payloads
  std::vector<double> reductions;         // last collective result per rank
  std::vector<std::vector<TraceEvent>> events;  // per rank, in order
};

// The workload: `rounds` of randomized all-to-all traffic. In each round
// every rank sends to every other rank a payload whose size and contents
// derive from (seed, round, src) — so the receiver can be oblivious — plus
// random compute advances and a split-phase sum reduction.
RunResult run_traffic(Engine& engine, std::uint64_t seed, int rounds) {
  const int ranks = engine.size();
  TraceCollector collector;
  engine.set_trace_sink(&collector);

  RunResult result;
  result.digests.assign(ranks, 0xcbf29ce484222325ull);
  result.reductions.assign(ranks, 0.0);

  for (int round = 0; round < rounds; ++round) {
    engine.run_phase([&, round](Comm& comm) {
      auto rng = stream(seed, round, comm.rank());
      comm.advance(1.0e-6 * static_cast<double>(rng.uniform_index(1000)));
      for (int peer = 0; peer < comm.size(); ++peer) {
        if (peer == comm.rank()) continue;
        const auto bytes = 1 + rng.uniform_index(256);
        comm.send(peer, round, make_payload(rng, bytes));
      }
      comm.reduce_begin(sim::ReduceOp::kSum, rng.uniform());
    });
    engine.run_phase([&, round](Comm& comm) {
      const int me = comm.rank();
      // Drain in ascending source order so the digest is well-defined.
      for (int src = 0; src < comm.size(); ++src) {
        if (src == me) continue;
        result.digests[me] = fnv1a(result.digests[me], comm.recv(src, round));
      }
      result.reductions[me] = comm.reduce_end();
      auto rng = stream(seed ^ 0xabcdef, round, me);
      comm.advance(1.0e-6 * static_cast<double>(rng.uniform_index(100)));
    });
  }
  engine.set_trace_sink(nullptr);

  for (int r = 0; r < ranks; ++r) {
    result.clocks.push_back(engine.clock(r));
    result.counters.push_back(engine.counters(r));
    result.events.push_back(collector.events(r));
  }
  return result;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.clocks.size(), b.clocks.size());
  for (std::size_t r = 0; r < a.clocks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    // Bitwise: EQ on doubles, not NEAR.
    EXPECT_EQ(a.clocks[r], b.clocks[r]);
    EXPECT_EQ(a.reductions[r], b.reductions[r]);
    EXPECT_EQ(a.digests[r], b.digests[r]);

    const auto& ca = a.counters[r];
    const auto& cb = b.counters[r];
    EXPECT_EQ(ca.compute_seconds, cb.compute_seconds);
    EXPECT_EQ(ca.comm_wait_seconds, cb.comm_wait_seconds);
    EXPECT_EQ(ca.collective_seconds, cb.collective_seconds);
    EXPECT_EQ(ca.messages_sent, cb.messages_sent);
    EXPECT_EQ(ca.bytes_sent, cb.bytes_sent);
    EXPECT_EQ(ca.messages_received, cb.messages_received);
    EXPECT_EQ(ca.bytes_received, cb.bytes_received);

    // The full per-rank event sequences (kinds, peers, sizes, timestamps)
    // must match event for event; TraceEvent compares all fields.
    EXPECT_EQ(a.events[r], b.events[r]);
    EXPECT_FALSE(a.events[r].empty());
  }
}

class EngineParityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineParityTest, SeqAndThreadAreBitwiseIdentical) {
  const std::uint64_t seed = GetParam();
  const int rounds = 12;
  // 36 and 64 ranks exceed the runner count on hosts below that many cores,
  // so runners claim several ranks per phase.
  for (const int ranks : {8, 36, 64}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    sim::SeqEngine seq(ranks, sim::MachineModel::t3e());
    const auto seq_result = run_traffic(seq, seed, rounds);

    sim::ThreadEngine threaded(ranks, sim::MachineModel::t3e());
    const auto thread_result = run_traffic(threaded, seed, rounds);

    expect_bitwise_equal(seq_result, thread_result);
  }
}

TEST_P(EngineParityTest, SeqIsReproducible) {
  const std::uint64_t seed = GetParam();
  sim::SeqEngine a(6, sim::MachineModel::t3e());
  sim::SeqEngine b(6, sim::MachineModel::t3e());
  expect_bitwise_equal(run_traffic(a, seed, 8), run_traffic(b, seed, 8));
}

TEST_P(EngineParityTest, ThreadIsReproducible) {
  const std::uint64_t seed = GetParam();
  sim::ThreadEngine a(6, sim::MachineModel::t3e());
  sim::ThreadEngine b(6, sim::MachineModel::t3e());
  expect_bitwise_equal(run_traffic(a, seed, 8), run_traffic(b, seed, 8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineParityTest,
                         ::testing::Values(1u, 42u, 0xfeedfaceu));

}  // namespace
}  // namespace pcmd::obs
