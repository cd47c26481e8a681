// Observer interface for the virtual machine's communication and clock
// events — the engine-side half of the observability layer (pcmd::obs).
//
// A TraceSink attached via Engine::set_trace_sink receives one callback per
// modelled event: compute charged by advance(), point-to-point send/recv,
// and split-phase collectives. All timestamps are *virtual* seconds on the
// acting rank's clock. Callbacks for rank r are invoked on the thread that
// runs rank r in the current phase: the driving thread in SeqEngine,
// whichever runner claimed r in ThreadEngine. Each rank has one runner per
// phase and the phase barrier orders phases, so a sink keeping per-rank
// state needs no locking for it. Detached cost is one predicted-not-taken
// branch per event.
//
// The concrete production sink is obs::TraceCollector (src/obs); the
// interface lives here so pcmd_sim does not depend on pcmd_obs.
#pragma once

#include <cstddef>

namespace pcmd::sim {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Fired by Engine::set_trace_sink with the engine's rank count, before any
  // event; a sink sizes its per-rank storage here.
  virtual void on_attach(int ranks) = 0;

  // Compute time charged via Comm::advance: [start, start + seconds].
  virtual void on_compute(int rank, double start, double seconds) = 0;

  // Send posted by `rank` to `peer` at virtual time `clock`.
  virtual void on_send(int rank, int peer, int tag, std::size_t bytes,
                       double clock) = 0;

  // Receive completed on `rank` from `peer`; `clock` is the post-receive
  // time, `wait` how far the clock jumped forward to the arrival.
  virtual void on_recv(int rank, int peer, int tag, std::size_t bytes,
                       double clock, double wait) = 0;

  // Split-phase collective participation on `rank`. `op` is the ReduceOp as
  // an int (the sink needs no semantics); `wait` on end is the synchronise-
  // to-slowest-plus-tree-cost clock jump.
  virtual void on_collective_begin(int rank, int op, std::size_t width,
                                   double clock) = 0;
  virtual void on_collective_end(int rank, double clock, double wait) = 0;
};

}  // namespace pcmd::sim
