// The traced pass's virtual machine: SeqEngine's phase loop with a host
// clock read around every phase and every rank body.
//
// ParallelMd runs on it unchanged, so a traced run must reproduce the
// untraced SeqEngine trajectory bit for bit (the ledger checks the digest).
// Inside a step the span tree is
//
//   step -> phase.A .. phase.F -> rank.<r>
//
// relying on ParallelMd's documented six BSP phases per step. A phase's
// self time is the engine's own bookkeeping; a step's self time is the
// driver code of ParallelMd::step outside the phases.
#pragma once

#include "spans.hpp"

#include "sim/comm.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace pcmd::ledger {

class TracedSeqEngine final : public sim::Engine {
 public:
  TracedSeqEngine(int ranks, SpanLog& log);

  void run_phase(const std::function<void(sim::Comm&)>& body) override;

  // Brackets one ParallelMd::step() in a "step" span with trace id
  // `step`. Phases outside a bracket (construction) are not recorded.
  void begin_step(std::int64_t step);
  void end_step();

 private:
  SpanLog& log_;
  std::uint32_t step_name_;
  std::vector<std::uint32_t> phase_names_;  // phase.A .. phase.F, extra
  std::vector<std::uint32_t> rank_names_;
  bool in_step_ = false;
  int phases_in_step_ = 0;
  std::int64_t trace_ = 0;
};

}  // namespace pcmd::ledger
