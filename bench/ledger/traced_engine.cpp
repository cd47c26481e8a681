#include "traced_engine.hpp"

#include <algorithm>
#include <string>

namespace pcmd::ledger {

TracedSeqEngine::TracedSeqEngine(int ranks, SpanLog& log)
    : Engine(ranks, sim::MachineModel::t3e()),
      log_(log),
      step_name_(log.intern("step")) {
  for (const char* phase : {"phase.A", "phase.B", "phase.C", "phase.D",
                            "phase.E", "phase.F", "phase.extra"}) {
    phase_names_.push_back(log.intern(phase));
  }
  for (int r = 0; r < ranks; ++r) {
    rank_names_.push_back(log.intern("rank." + std::to_string(r)));
  }
}

void TracedSeqEngine::run_phase(const std::function<void(sim::Comm&)>& body) {
  if (in_step_) {
    const auto k = static_cast<std::size_t>(phases_in_step_++);
    log_.begin(phase_names_[std::min(k, phase_names_.size() - 1)], trace_);
  }
  ++phase_;
  notify_phase_begin();
  for (int r = 0; r < size(); ++r) {
    if (!alive(r)) continue;
    sim::Comm comm(this, r);
    if (in_step_) log_.begin(rank_names_[static_cast<std::size_t>(r)], trace_);
    body(comm);
    if (in_step_) log_.end();
  }
  if (in_step_) log_.end();
}

void TracedSeqEngine::begin_step(std::int64_t step) {
  trace_ = step;
  phases_in_step_ = 0;
  in_step_ = true;
  log_.begin(step_name_, step);
}

void TracedSeqEngine::end_step() {
  log_.end();
  in_step_ = false;
}

}  // namespace pcmd::ledger
