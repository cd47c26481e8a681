// SPMD parallel MD engine: square-pillar domain decomposition over the
// virtual parallel machine, with optional permanent-cell dynamic load
// balancing (the paper's DLB-DDM vs DDM comparison).
//
// One time step is six BSP phases:
//   A  drift (first Verlet half-step) and send {last-step busy time, owned
//      column digest} to the 8 torus neighbours;
//   B  apply digests; run the DLB decision (paper Section 2.3) and, when a
//      column moves, extract its particles and send them to the receiver;
//      announce (PE_fast, C_send) to all 8 neighbours (paper protocol step
//      4); send round-1 migration (particles that drifted out of my
//      columns);
//   C  apply announcements, absorb column transfers and round-1 migrants;
//      forward any migrant whose column changed hands this very step
//      (round 2);
//   D  absorb round-2 migrants; build the halo plan from the (now globally
//      consistent) ownership view and send boundary-cell positions;
//   E  absorb halo, compute forces for owned cells (charged to the virtual
//      clock), second Verlet half-step; post the step's reductions;
//   F  finish reductions: temperature rescaling and the step statistics.
//
// Physics parity: the force kernel, integrator and thermostat are shared
// with md::SerialMd, and iteration orders are fixed, so a parallel run
// reproduces the serial trajectory (bitwise until the first velocity
// rescale, whose global kinetic-energy sum differs only in rounding).
#pragma once

#include "core/column_map.hpp"
#include "core/dlb_protocol.hpp"
#include "core/invariant.hpp"
#include "core/pillar_layout.hpp"
#include "ddm/balancer.hpp"
#include "ddm/engine_config.hpp"
#include "ddm/fault_tolerance.hpp"
#include "ddm/rank_md.hpp"
#include "ddm/recovery.hpp"
#include "ddm/wire.hpp"
#include "md/cell_grid.hpp"
#include "md/integrator.hpp"
#include "md/lj.hpp"
#include "md/particle.hpp"
#include "md/thermostat.hpp"
#include "sim/checker.hpp"
#include "sim/comm.hpp"
#include "sim/membership.hpp"
#include "sim/reliable.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace pcmd::obs {
class TraceCollector;
}

namespace pcmd::ddm {

struct ParallelMdConfig {
  int pe_side = 3;  // sqrt(P) >= 3
  int m = 2;        // pillar cross-section; cells per axis K = m * pe_side
  double cutoff = 2.5;
  double dt = 0.005;
  std::optional<double> rescale_temperature;
  int rescale_interval = 50;
  core::DlbConfig dlb;
  // Which load-balancing policy drives phase B's decision (ddm/balancer.hpp).
  // kNone, the default, is the paper's DDM and skips the decision;
  // kPermanent is the paper's DLB-DDM.
  BalancerConfig balancer;
  // Observability: when set, named spans for the step's sub-phases (drift,
  // dlb, migrate, halo, force) and DLB-decision events are recorded into
  // this collector, in virtual time. The caller usually also attaches the
  // same collector to the engine (Engine::set_trace_sink) so machine-level
  // send/recv/collective events land in between the spans. Not owned; must
  // outlive this object. nullptr (default) records nothing.
  obs::TraceCollector* trace = nullptr;
  // Reliable delivery / crash survival (see FaultToleranceConfig).
  FaultToleranceConfig fault_tolerance;
};

// The engine rank count a ParallelMd with `config` runs on: pe_side^2, plus
// fault_tolerance.healing.spares when healing is enabled. Size the engine
// with this. Throws std::invalid_argument for a negative spare count.
int engine_rank_count(const ParallelMdConfig& config);

// Per-step statistics (globally reduced; identical on every rank).
struct ParallelStepStats {
  std::int64_t step = 0;
  double t_step = 0.0;      // virtual seconds for the step (the paper's Tt)
  double force_max = 0.0;   // Fmax: slowest PE's force-computation seconds
  double force_avg = 0.0;   // Fave
  double force_min = 0.0;   // Fmin
  double potential_energy = 0.0;
  double kinetic_energy = 0.0;
  double temperature = 0.0;
  double virial = 0.0;
  double pressure = 0.0;
  std::uint64_t pair_evaluations = 0;
  std::int64_t total_particles = 0;
  int transfers = 0;        // columns moved by DLB this step
  double imbalance = 0.0;   // fractional load imbalance, Fmax/Fave - 1
  int cells_moved = 0;      // cells migrated this step (transfers x K)
  // Concentration bookkeeping for the Section 4 analysis:
  int empty_cells = 0;           // C0: cells with no particle, whole space
  int max_domain_cells = 0;      // cells of the PE owning the most cells
  int max_domain_empty = 0;      // empty cells of that same PE
  int max_empty_cells = 0;       // most empty cells on any PE
  int max_empty_domain_cells = 0;  // cells of that PE
  // Fault-tolerance accounting, summed over ranks for this step only:
  std::uint64_t retransmissions = 0;   // reliable-channel retries
  std::uint64_t corrupt_discarded = 0; // frames dropped by the CRC check
  std::uint64_t recv_timeouts = 0;     // expired recv deadlines
  int live_ranks = 0;                  // roles with a live host
  // Self-healing accounting (healing.enabled runs; per-step deltas):
  std::uint64_t checkpoint_bytes = 0;    // buddy envelope bytes shipped
  std::uint64_t rollbacks = 0;           // all-role rollbacks executed
  std::uint64_t failovers = 0;           // roles promoted onto a spare
  std::uint64_t particles_recovered = 0; // particles replayed from envelopes
  int epoch = 0;                         // membership epoch after the step
};

// The engine computes in logical *role* space (sim/membership.hpp): ranks_
// is indexed by role, column maps store role ids, and collectives fill
// logical slots. Only send_to/recv_from translate role -> physical engine
// rank, so a failover (role moved to a spare) changes no arithmetic. With
// fault_tolerance.healing disabled the mapping is the identity and the
// engine behaves exactly as before.
class ParallelMd {
 public:
  // Declarative construction. `setup` names the machine and either the
  // fresh-start (box, initial) pair or a checkpoint() buffer to resume
  // from. Fresh start: `initial` must lie inside `box`; the box edge must
  // equal (m * pe_side) * cell_edge with cell_edge >= cutoff. Resume:
  // particle order, ownership, DLB busy times and the step counter are
  // restored so the continued trajectory is bitwise identical to the
  // uninterrupted run; the config must describe the same (pe_side, m)
  // decomposition (std::runtime_error on a mismatched or corrupted
  // checkpoint). Either way the engine must provide pe_side^2 ranks, plus
  // fault_tolerance.healing.spares extra ranks when healing is enabled.
  ParallelMd(const EngineConfig& setup, const ParallelMdConfig& config);
  // Detaches the protocol checker from the engine when one was installed.
  ~ParallelMd();

  ParallelMd(const ParallelMd&) = delete;
  ParallelMd& operator=(const ParallelMd&) = delete;

  // Advances one step; the returned statistics are the globally reduced
  // values every PE agreed on.
  ParallelStepStats step();
  ParallelStepStats run(std::int64_t steps);

  std::int64_t step_count() const { return step_count_; }

  // Serializes the full engine state (versioned, checksummed; see
  // md/checkpoint.hpp). Call between steps.
  sim::Buffer checkpoint() const;

  const core::PillarLayout& layout() const { return layout_; }
  const md::CellGrid& grid() const { return grid_; }
  const Box& box() const { return box_; }
  int total_cells() const { return grid_.num_cells(); }

  // ---- validation / diagnostics (outside the SPMD model) ----
  // All particles across live roles, sorted by id.
  md::ParticleVector gather_particles() const;
  // A role's local ownership view.
  const core::ColumnMap& column_map_view(int rank) const;
  // Structural invariants on rank 0's view plus cross-rank consistency of
  // every rank's view of its own and its neighbours' columns.
  core::InvariantReport check_ownership() const;
  // Last step's force-computation virtual seconds on a role.
  double force_seconds(int rank) const;

  // ---- self-healing introspection ----
  const sim::Membership& membership() const { return membership_; }
  const RecoveryCounters& recovery_counters() const { return recovery_; }

 private:
  struct Rank : RankMd {
    core::ColumnMap map;
    int transfers_made = 0;
    // Fault tolerance (used when config.fault_tolerance enables them):
    sim::ReliableChannel channel;
    std::vector<char> peer_alive;  // this rank's view; all 1 initially
    // send_halo scratch, reused across steps:
    std::vector<std::vector<int>> halo_columns_for;
    std::vector<std::vector<std::int32_t>> halo_by_column;
    // Self-healing: this role's own envelopes and its ward's (the role
    // whose buddy this role is).
    EnvelopeWindow self_snap;
    EnvelopeWindow ward_snap;

    explicit Rank(const core::PillarLayout& layout) : map(layout) {}
  };

  // Phase bodies (`me` is the executing role).
  void phase_a_drift_and_digest(sim::Comm& comm, int me);
  void phase_b_decide_and_migrate(sim::Comm& comm, int me);
  void phase_c_absorb_and_forward(sim::Comm& comm, int me);
  void phase_d_halo_send(sim::Comm& comm, int me);
  void phase_e_forces(sim::Comm& comm, int me);
  void phase_f_finish(sim::Comm& comm, int me);

  // Helpers.
  int column_of_position(const Vec3& position) const;
  // Fills rank.target_cells with the cells of role `me`'s own columns.
  void target_owned_cells(Rank& rank, int me) const;
  void send_halo(sim::Comm& comm, Rank& rank, int me, int tag);
  void absorb_halo(sim::Comm& comm, Rank& rank, int me, int tag);

  // Healing is also what turns death detection on (recv_from).
  bool healing_enabled() const {
    return config_.fault_tolerance.healing.enabled;
  }
  // Role `role` currently has a live host.
  bool role_live(int role) const {
    const int p = membership_.physical_of(role);
    return p >= 0 && engine_->alive(p);
  }
  // Torus buddy assignment: the envelope of role l is replicated on its
  // +1-column neighbour (buddy); l is that neighbour's *ward*.
  int buddy_of(int role) const;
  int ward_of(int role) const;

  // ---- self-healing machinery (driver side, between phases) ----
  // One attempted MD step: the six phases plus statistics assembly.
  // Increments step_count_; the result is discarded if the step is then
  // rolled back.
  ParallelStepStats attempt_step();
  // Ships every live role's envelope to its buddy (two phases); records
  // generation = step_count_.
  void buddy_round();
  void maybe_buddy_round();
  // Roles whose host died since the last scan.
  std::vector<int> scan_dead_roles() const;
  // Failover/retire the dead roles, roll every survivor back to a common
  // generation, replay envelopes, and re-replicate.
  void recover_from_deaths(const std::vector<int>& dead_roles);
  // Newest generation restorable by every live role (promoted roles restore
  // from their buddy's ward envelope). Throws RecoveryError if none.
  std::int64_t choose_generation(const std::vector<int>& promoted) const;
  // All-role rollback to `gen`: restore state, redistribute retired roles'
  // envelopes, rerun the init phases, reset step_count_.
  void perform_rollback(std::int64_t gen, const std::vector<int>& promoted,
                        const std::vector<int>& retired);
  // The initial halo + force phases (construction and post-rollback). A
  // restored role keeps the busy time it was restored with, because that,
  // not the init cost, drives the next DLB decision; only a fresh start
  // takes the init charge as its busy time.
  void run_init_phases(bool fresh);

  // Fault-tolerant transport: all wire traffic funnels through these, and
  // they are the ONLY place roles translate to physical ranks. With
  // fault_tolerance.reliable the payload rides the role's ReliableChannel
  // (streams keyed by the physical peer, so a failover naturally restarts
  // them at sequence 0 on both ends); with healing a silent peer is marked
  // dead in this role's view (recv_from returns nullopt) and the recovery
  // driver repairs it between phases. `dst`/`src` are roles.
  void send_to(sim::Comm& comm, Rank& rank, int dst, int tag,
               sim::Buffer payload);
  std::optional<sim::Buffer> recv_from(sim::Comm& comm, Rank& rank, int src,
                                       int tag);
  // Construction paths behind the EngineConfig constructor: bin fresh
  // particles into the box, or restore everything from a checkpoint buffer.
  void init_fresh(const Box& box, const md::ParticleVector& initial);
  void init_resume(const sim::Buffer& checkpoint);
  // Shared post-construction work: checker/trace attachment and the initial
  // halo + force phases.
  void finish_construction(bool fresh);

  // Span instrumentation (no-ops when config_.trace is null). Ids are
  // interned once in the constructor so the per-event path takes no lock.
  struct SpanNames {
    std::uint32_t drift = 0;
    std::uint32_t dlb = 0;
    std::uint32_t migrate = 0;
    std::uint32_t halo = 0;
    std::uint32_t force = 0;
    // Self-healing spans (buddy from phase bodies; the rest driver-side):
    std::uint32_t buddy = 0;
    std::uint32_t rollback = 0;
    std::uint32_t failover = 0;
    // Counter tracks (running totals) for the fault-tolerance layer:
    std::uint32_t ctr_retransmissions = 0;
    std::uint32_t ctr_recv_timeouts = 0;
    std::uint32_t ctr_faults_injected = 0;
    std::uint32_t ctr_checkpoint_bytes = 0;
    std::uint32_t ctr_rollbacks = 0;
    std::uint32_t ctr_failovers = 0;
    // Balancer quality tracks:
    std::uint32_t ctr_imbalance = 0;
    std::uint32_t ctr_cells_moved = 0;
  };
  void span_begin(sim::Comm& comm, std::uint32_t name) const;
  void span_end(sim::Comm& comm, std::uint32_t name) const;
  // Driver-side span on the first live physical rank (recovery events
  // happen between phases, with no Comm in hand).
  void driver_span(std::uint32_t name, double begin, double end) const;

  sim::Engine* engine_;
  Box box_;
  ParallelMdConfig config_;
  core::PillarLayout layout_;
  md::CellGrid grid_;
  md::LennardJones lj_;
  md::VelocityVerlet integrator_;
  std::optional<md::RescaleThermostat> thermostat_;
  std::unique_ptr<Balancer> balancer_;
  sim::Membership membership_;
  Watchdog watchdog_;
  std::unique_ptr<sim::ProtocolChecker> checker_;  // PCMD_ASSERTS_ENABLED
  SpanNames spans_;
  std::vector<std::unique_ptr<Rank>> ranks_;  // indexed by role
  std::int64_t step_count_ = 0;
  bool dlb_active_this_step_ = false;
  // Previous step()'s cumulative channel totals, for per-step deltas.
  std::uint64_t prev_retransmissions_ = 0;
  std::uint64_t prev_corrupt_discarded_ = 0;
  std::uint64_t prev_recv_timeouts_ = 0;
  // Self-healing state.
  RecoveryCounters recovery_;
  RecoveryCounters prev_recovery_;       // for per-step stat deltas
  std::int64_t last_generation_ = -1;    // newest buddy generation shipped
  int last_suspect_ = -1;                // velocity alarm of the last attempt
  // Channel counters lost when a promoted role's channel is reset; added
  // back so the cumulative totals stay monotone.
  std::uint64_t lost_retransmissions_ = 0;
  std::uint64_t lost_corrupt_discarded_ = 0;

  // End-of-step verification (PCMD_ASSERTS_ENABLED builds only): SPMD
  // protocol trace clean and, on DLB steps, the paper's structural
  // invariants. Violations throw core::CheckError / sim::ProtocolError with
  // provenance.
  void verify_step_invariants() const;
};

}  // namespace pcmd::ddm
