// Fault-tolerance knobs of the paper's square-pillar engine, ParallelMd.
// The 1-D slab baseline SlabMd runs fault-free and has none.
#pragma once

#include "ddm/recovery.hpp"
#include "sim/reliable.hpp"

namespace pcmd::ddm {

struct FaultToleranceConfig {
  // Route every wire exchange through a sim::ReliableChannel, masking
  // dropped/corrupted/delayed messages (transient faults) exactly: the
  // delivered bytes — and therefore the trajectory — match a fault-free
  // run; only the virtual clocks and retry counters differ.
  bool reliable = false;
  sim::ReliablePolicy policy;
  // Detect permanently crashed ranks (a peer silent past recv_timeout) and
  // degrade gracefully: survivors re-adopt the dead rank's permanent cells
  // and continue with its particles lost. Consistent adoption requires
  // every survivor to observe the crash in the same phase, which the
  // 8-neighbour digest traffic guarantees on a 3x3 process torus (each rank
  // hears from every other rank every step).
  bool recovery = false;
  double recv_timeout = 5e-4;  // virtual seconds before a peer is presumed dead

  // Lossless self-healing (buddy checkpoints + spare failover + watchdog
  // rollback; see ddm/recovery.hpp). Subsumes `recovery`: when
  // healing.enabled, a crash is repaired from the buddy replica instead of
  // losing the dead rank's particles. Implies `reliable` routing.
  SelfHealingConfig healing;
};

}  // namespace pcmd::ddm
