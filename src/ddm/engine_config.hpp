// ParallelMd's construction context. SlabMd only starts fresh, so its one
// constructor takes (engine, box, initial) and needs no "exactly one of"
// check.
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

}  // namespace pcmd::ddm
