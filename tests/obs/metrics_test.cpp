// The one counter sum: machine_report totals the engine's per-rank clocks
// and counters, and MetricsRecorder turns those totals into per-step deltas.
// Parameterised over both backends like the sim engine suite: the totals
// must be identical for SeqEngine and ThreadEngine.
#include "obs/metrics.hpp"

#include "sim/comm.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace pcmd::obs {
namespace {

enum class Backend { kSeq, kThread };

std::unique_ptr<sim::Engine> make_engine(Backend backend, int ranks,
                                         sim::MachineModel model) {
  if (backend == Backend::kSeq) {
    return std::make_unique<sim::SeqEngine>(ranks, std::move(model));
  }
  return std::make_unique<sim::ThreadEngine>(ranks, std::move(model));
}

class EngineTest : public ::testing::TestWithParam<Backend> {};

TEST_P(EngineTest, MachineReportAggregates) {
  auto engine =
      make_engine(GetParam(), 2, sim::MachineModel::ideal_network());
  engine->run_phase([](sim::Comm& comm) { comm.advance(2.0); });
  const MachineReport report = machine_report(*engine);
  EXPECT_EQ(report.ranks, 2);
  EXPECT_DOUBLE_EQ(report.makespan, 2.0);
  EXPECT_DOUBLE_EQ(report.total_compute, 4.0);
  EXPECT_DOUBLE_EQ(report.efficiency(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineTest,
                         ::testing::Values(Backend::kSeq, Backend::kThread),
                         [](const auto& info) {
                           return info.param == Backend::kSeq ? "Seq"
                                                              : "Thread";
                         });

TEST(MetricsRecorder, DeltasAgainstEngineCounters) {
  sim::SeqEngine engine(2, sim::MachineModel::t3e());
  MetricsRecorder recorder(engine);

  engine.run_phase([](sim::Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 1, sim::Buffer(100));
  });
  engine.run_phase([](sim::Comm& comm) {
    if (comm.rank() == 1) (void)comm.recv(0, 1);
  });

  StepMetrics input;
  input.step = 1;
  const auto& row1 = recorder.record(input);
  EXPECT_EQ(row1.messages, 1u);
  EXPECT_EQ(row1.bytes, 100u);
  EXPECT_GT(row1.wait_seconds, 0.0);

  // No traffic since the last record: the next row's deltas are zero.
  input.step = 2;
  const auto& row2 = recorder.record(input);
  EXPECT_EQ(row2.messages, 0u);
  EXPECT_EQ(row2.bytes, 0u);
  EXPECT_EQ(row2.wait_seconds, 0.0);
  EXPECT_EQ(recorder.rows().size(), 2u);
}

}  // namespace
}  // namespace pcmd::obs
