// Fault-tolerance knobs of the paper's square-pillar engine, ParallelMd.
// The 1-D slab baseline SlabMd runs fault-free and has none.
#pragma once

#include "ddm/recovery.hpp"

namespace pcmd::ddm {

struct FaultToleranceConfig {
  // Route every wire exchange through a sim::ReliableChannel with the
  // default sim::ReliablePolicy, masking dropped/corrupted/delayed messages
  // (transient faults) exactly: the delivered bytes — and therefore the
  // trajectory — match a fault-free run; only the virtual clocks and retry
  // counters differ.
  bool reliable = false;

  // Crash survival: lossless self-healing (buddy checkpoints + spare
  // failover + watchdog rollback; see ddm/recovery.hpp). A crash is
  // repaired from the buddy replica, so no particle is lost. Implies
  // `reliable` routing.
  SelfHealingConfig healing;
};

}  // namespace pcmd::ddm
