// ParallelMd's construction context, and the compute charge both ddm
// engines share.
//
// ParallelMd historically took its execution context as a run of
// positional constructor arguments — (engine, box, initial particles) or
// (engine, checkpoint). EngineConfig names those pieces once, so call sites
// (and the run::RunSpec layer built on top of the engine) read
// declaratively and new context can be added without widening every
// constructor. The positional constructors remain as thin forwarding shims.
// SlabMd only starts fresh, so its one constructor takes (engine, box,
// initial) and needs no "exactly one of" check. Both engines charge their
// compute through advance_compute below.
#pragma once

#include "md/particle.hpp"
#include "sim/comm.hpp"
#include "sim/message.hpp"
#include "util/pbc.hpp"

#include <stdexcept>
#include <string>

namespace pcmd::ddm {

// The execution context ParallelMd is constructed over. Pointers are
// non-owning and must stay valid for the duration of the constructor call
// (the engine copies what it keeps). Exactly one of `initial` and
// `checkpoint` must be set: a fresh start bins `initial` into `box`, a
// resume restores box and state from the checkpoint buffer (`box` is then
// ignored).
struct EngineConfig {
  sim::Engine* engine = nullptr;                // required virtual machine
  Box box = Box::cubic(1.0);                    // fresh-start simulation box
  const md::ParticleVector* initial = nullptr;  // fresh-start particles
  const sim::Buffer* checkpoint = nullptr;      // resume source
};

// Validates the aggregate's structural requirements with the constructing
// engine's name in the message; returns the non-null engine.
inline sim::Engine& validated_engine(const EngineConfig& setup,
                                     const char* who) {
  if (setup.engine == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                ": EngineConfig.engine must be set");
  }
  if ((setup.initial == nullptr) == (setup.checkpoint == nullptr)) {
    throw std::invalid_argument(
        std::string(who) +
        ": EngineConfig needs exactly one of initial and checkpoint");
  }
  return *setup.engine;
}

// Charges `seconds` of compute to the calling rank's clock and to `busy`,
// and returns the virtual time that actually passed. The engines charge
// this measured interval, not the requested cost: an injected stall
// (sim/fault.hpp) stretches it, and the stretch must reach the rank's busy
// time for load balancing to see, and shed, the slow rank.
inline double advance_compute(sim::Comm& comm, double seconds, double& busy) {
  const double before = comm.clock();
  comm.advance(seconds);
  const double elapsed = comm.clock() - before;
  busy += elapsed;
  return elapsed;
}

}  // namespace pcmd::ddm
