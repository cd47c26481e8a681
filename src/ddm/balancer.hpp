// Pluggable load-balancing policies for the SPMD pillar engine.
//
// ParallelMd used to hard-wire the paper's permanent-cell protocol into its
// phase-B decision; ddm::Balancer extracts that decision behind an interface
// so alternative policies can be compared head-to-head on identical wire
// traffic (see bench/ablation_policies and ROADMAP item 2).
//
// Contract (enforced by tests/ddm/balancer_conformance_test.cpp):
//
//  * decide() is a PURE function of (rank, ownership map, neighbour times,
//    per-column loads): no hidden state, no wall clock, no randomness. This
//    is what makes every policy bitwise identical across SeqEngine and
//    ThreadEngine and lets checkpoint/restart resume mid-rebalance without
//    serializing any balancer state.
//  * A returned decision must respect the permanent-cell structural rules
//    (core/pillar_layout.hpp): only a movable column may leave its home
//    block, only toward an upper-left neighbour, and foreign columns may
//    only return home. Every policy below routes its candidate generation
//    through core::DlbProtocol::decide_for_target, which asserts exactly
//    these rules — so the halo planner's "adjacent columns are owned by
//    8-neighbours" invariant survives any policy.
//  * At most one column moves per rank per step (the wire protocol carries
//    one announcement); max_columns_per_step() declares the policy's own
//    cap, which the conformance battery checks against observed transfers.
//
// Policies:
//   permanent  the paper's Section 2.3 protocol, verbatim (the extraction
//              is bitwise identical to the pre-refactor engine — guarded by
//              tests/regression);
//   rescale    HOOMD-style tuner: act only when the measured fractional
//              load imbalance of the 9-PE neighbourhood exceeds a
//              tolerance, then shed toward the fastest helpable neighbour
//              with a capped per-move load fraction;
//   diffusion  nearest-neighbour diffusion along the torus column axis:
//              trade a column with the (i, j+-1) neighbours when the
//              pairwise time gradient exceeds a threshold, moving at most
//              the gap-proportional load;
//   none       the paper's DDM: never moves anything. ParallelMd skips
//              phase B's decision for it; the announcements still go out,
//              so the wire traffic matches a DLB run that moves nothing.
#pragma once

#include "core/column_map.hpp"
#include "core/dlb_protocol.hpp"
#include "core/pillar_layout.hpp"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pcmd::ddm {

enum class BalancerKind { kPermanent, kRescale, kDiffusion, kNone };

// The policy and the tuning knobs of the non-paper policies (the paper
// protocol reads its knobs from core::DlbConfig, unchanged). kNone, the
// default, is the paper's DDM: no decision is ever made.
struct BalancerConfig {
  BalancerKind kind = BalancerKind::kNone;
  // rescale: act only when t_self / mean(neighbourhood) > 1 + tolerance
  // (HOOMD's LoadBalancer gates on the same fractional imbalance).
  double rescale_tolerance = 0.05;
  // diffusion: minimum relative time gap to an axis neighbour before a
  // column is traded.
  double diffusion_threshold = 0.02;
};

class Balancer {
 public:
  virtual ~Balancer() = default;

  virtual BalancerKind kind() const = 0;

  // Declared per-rank, per-step movement cap in columns. The engine's wire
  // protocol physically limits this to 1; a policy may declare 0 (none).
  virtual int max_columns_per_step() const = 0;

  // One rank's decision for this step. `times` follows the
  // PillarLayout::pe_torus().neighbors8(rank) order (a dead neighbour's
  // entry is +infinity and must never be targeted); `column_load` returns
  // the current computational load of a column in arbitrary consistent
  // units. target == -1 means "no transfer".
  virtual core::DlbDecision decide(
      int rank, const core::ColumnMap& map, const core::NeighborTimes& times,
      const std::function<double(int)>& column_load) const = 0;
};

// Registry helpers. Names are the CLI spellings of --balancer.
const char* balancer_name(BalancerKind kind);
// Throws std::invalid_argument naming the token and the accepted names —
// unknown policies are hard errors, never silently defaulted.
BalancerKind parse_balancer_kind(const std::string& name);
// Every registered policy, in a fixed order (for sweeps and conformance).
std::vector<BalancerKind> all_balancer_kinds();

std::unique_ptr<Balancer> make_balancer(const core::PillarLayout& layout,
                                        const core::DlbConfig& dlb,
                                        const BalancerConfig& config);

}  // namespace pcmd::ddm
