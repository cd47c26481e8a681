#include "ddm/parallel_md.hpp"

#include "core/check.hpp"
#include "ddm/wire.hpp"
#include "md/checkpoint.hpp"
#include "md/observables.hpp"
#include "obs/balance_metric.hpp"
#include "obs/collector.hpp"
#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

namespace pcmd::ddm {

namespace {
// Composite encodings for the "which PE has the maximum" reductions: both
// component values stay far below 1e6, so cells * 1e6 + empty is exact in a
// double and its max identifies the PE with the most cells together with
// that PE's empty-cell count.
constexpr double kComposite = 1.0e6;

// Virtual seconds a healing run waits on a silent peer before presuming it
// dead.
constexpr double kRecvTimeout = 5e-4;

// Per-component velocity magnitude above which a role flags itself to the
// healing watchdog through the max collective.
constexpr double kVelocityAlarm = 50.0;

// Recovery attempts (rollbacks + failovers) tolerated per step() call
// before a healing run is declared unrecoverable.
constexpr int kMaxRecoveryRounds = 8;

std::pair<int, int> decode_composite(double value) {
  const auto hi = static_cast<int>(value / kComposite);
  const auto lo = static_cast<int>(std::llround(value - hi * kComposite));
  return {hi, lo};
}

// Checks the engine against engine_rank_count before Membership is built,
// so a bad count fails with engine-level provenance.
int validated_rank_count(const sim::Engine& engine,
                         const ParallelMdConfig& config) {
  if (engine.size() != engine_rank_count(config)) {
    throw std::invalid_argument(
        config.fault_tolerance.healing.enabled
            ? "ParallelMd: engine rank count must equal pe_side^2 + "
              "healing.spares"
            : "ParallelMd: engine rank count must equal pe_side^2");
  }
  return engine.size();
}
}  // namespace

int engine_rank_count(const ParallelMdConfig& config) {
  const auto& healing = config.fault_tolerance.healing;
  if (healing.spares < 0) {
    throw std::invalid_argument(
        "ParallelMd: fault_tolerance.healing.spares must not be negative");
  }
  return config.pe_side * config.pe_side +
         (healing.enabled ? healing.spares : 0);
}

ParallelMd::ParallelMd(const EngineConfig& setup,
                       const ParallelMdConfig& config)
    : engine_(&validated_engine(setup, "ParallelMd")),
      box_(Box::cubic(1.0)),  // placeholder; set by the init path below
      config_(config),
      layout_(config.pe_side, config.m),
      grid_(Box::cubic(static_cast<double>(config.pe_side * config.m) *
                       config.cutoff),
            layout_.cells_axis(), layout_.cells_axis(), layout_.cells_axis()),
      lj_(config.cutoff),
      integrator_(config.dt),
      balancer_(make_balancer(layout_, config.dlb, config.balancer)),
      membership_(layout_.pe_count(),
                  validated_rank_count(*setup.engine, config)),
      watchdog_(config.fault_tolerance.healing) {
  if (config.rescale_temperature) {
    thermostat_.emplace(*config.rescale_temperature, config.rescale_interval);
  }
  if (setup.checkpoint != nullptr) {
    init_resume(*setup.checkpoint);
  } else {
    init_fresh(setup.box, *setup.initial);
  }
}

void ParallelMd::init_fresh(const Box& box,
                            const md::ParticleVector& initial) {
  box_ = box;
  grid_ = md::CellGrid(box_, layout_.cells_axis(), layout_.cells_axis(),
                       layout_.cells_axis());
  if (!grid_.covers_cutoff(config_.cutoff)) {
    throw std::invalid_argument(
        "ParallelMd: cell edge smaller than the cut-off; box too small for "
        "this (pe_side, m)");
  }

  ranks_.reserve(layout_.pe_count());
  for (int r = 0; r < layout_.pe_count(); ++r) {
    ranks_.push_back(std::make_unique<Rank>(layout_));
  }

  for (const auto& particle : initial) {
    if (!in_primary_image(particle.position, box_)) {
      throw std::invalid_argument(
          "ParallelMd: initial particle outside the primary image");
    }
    const int col = column_of_position(particle.position);
    ranks_[layout_.home_rank(col)]->owned.push_back(particle);
  }

  finish_construction(/*fresh=*/true);
}

void ParallelMd::init_resume(const sim::Buffer& checkpoint) {
  sim::Unpacker unpacker(md::open_checkpoint(md::CheckpointKind::kParallel,
                                             checkpoint));
  try {
    const auto pe_side = unpacker.get<std::int32_t>();
    const auto m = unpacker.get<std::int32_t>();
    if (pe_side != config_.pe_side || m != config_.m) {
      throw md::CheckpointError(
          "ParallelMd: checkpoint decomposition (pe_side=" +
          std::to_string(pe_side) + ", m=" + std::to_string(m) +
          ") does not match the config");
    }
    step_count_ = unpacker.get<std::int64_t>();
    box_ = unpacker.get<Box>();
    grid_ = md::CellGrid(box_, layout_.cells_axis(), layout_.cells_axis(),
                         layout_.cells_axis());
    if (!grid_.covers_cutoff(config_.cutoff)) {
      throw md::CheckpointError(
          "ParallelMd: checkpointed box too small for this cut-off");
    }
    ranks_.reserve(layout_.pe_count());
    for (int r = 0; r < layout_.pe_count(); ++r) {
      auto rank = std::make_unique<Rank>(layout_);
      rank->owned = unpacker.get_vector<md::Particle>();
      md::check_resumable(rank->owned, box_,
                          "ParallelMd: checkpoint rank " + std::to_string(r));
      const auto owners = unpacker.get_vector<std::int32_t>();
      if (static_cast<int>(owners.size()) != layout_.num_columns()) {
        throw md::CheckpointError(
            "ParallelMd: checkpoint column table has the wrong size");
      }
      for (int col = 0; col < layout_.num_columns(); ++col) {
        const std::int32_t owner = owners[static_cast<std::size_t>(col)];
        if (owner < 0 || owner >= layout_.pe_count()) {
          throw md::CheckpointError(
              "ParallelMd: checkpoint rank " + std::to_string(r) +
              " column " + std::to_string(col) + " has owner " +
              std::to_string(owner) + " outside [0, " +
              std::to_string(layout_.pe_count()) + ")");
        }
        rank->map.set_owner(col, owner);
      }
      rank->last_busy = unpacker.get<double>();
      rank->force_seconds = unpacker.get<double>();
      ranks_.push_back(std::move(rank));
    }
    if (!unpacker.exhausted()) {
      throw md::CheckpointError(
          "ParallelMd: trailing bytes in checkpoint payload");
    }
    finish_construction(/*fresh=*/false);
  } catch (const std::out_of_range& e) {
    throw md::CheckpointError(std::string("ParallelMd: truncated checkpoint: ") +
                             e.what());
  }
}

void ParallelMd::finish_construction(bool fresh) {
  // Buddy envelopes and restore traffic must survive a lossy link, so
  // healing makes reliable routing mandatory.
  if (healing_enabled()) {
    config_.fault_tolerance.reliable = true;
  }
  // Checked builds attach a sim::ProtocolChecker: all traffic must stay on
  // the 8-neighbour torus stencil and drain every step. It presumes
  // lossless, crash-free traffic, so it stays off when the run is
  // deliberately faulty (dropped copies and dead ranks are expected there).
  auto* injector = engine_->fault_injector();
  const bool faulty = (injector != nullptr && !injector->plan().empty()) ||
                      healing_enabled();
  if (PCMD_ASSERTS_ENABLED && !faulty) {
    sim::ProtocolChecker::Options options;
    // Every message of the six-phase step protocol must stay on the paper's
    // 8-neighbour stencil; no tag is exempt.
    options.neighbor_torus = layout_.pe_torus();
    checker_ = std::make_unique<sim::ProtocolChecker>(std::move(options));
    engine_->set_checker(checker_.get());
  }
  if (config_.trace) {
    // A promoted spare emits events from a physical rank >= pe_count, so the
    // collector must be sized to the whole engine.
    config_.trace->on_attach(engine_->size());
    spans_.drift = config_.trace->intern("drift");
    spans_.dlb = config_.trace->intern("dlb");
    spans_.migrate = config_.trace->intern("migrate");
    spans_.halo = config_.trace->intern("halo");
    spans_.force = config_.trace->intern("force");
    spans_.buddy = config_.trace->intern("buddy");
    spans_.rollback = config_.trace->intern("rollback");
    spans_.failover = config_.trace->intern("failover");
    spans_.ctr_retransmissions = config_.trace->intern("retransmissions");
    spans_.ctr_recv_timeouts = config_.trace->intern("recv_timeouts");
    spans_.ctr_faults_injected = config_.trace->intern("faults_injected");
    spans_.ctr_checkpoint_bytes = config_.trace->intern("checkpoint_bytes");
    spans_.ctr_rollbacks = config_.trace->intern("rollbacks");
    spans_.ctr_failovers = config_.trace->intern("failovers");
    spans_.ctr_imbalance = config_.trace->intern("imbalance");
    spans_.ctr_cells_moved = config_.trace->intern("cells_moved");
  }
  for (auto& rank : ranks_) {
    rank->peer_alive.assign(static_cast<std::size_t>(layout_.pe_count()), 1);
    rank->channel = sim::ReliableChannel();
  }
  // Spares idle at the barriers until a failover promotes them.
  for (int p = 0; p < engine_->size(); ++p) {
    if (membership_.role_of(p) < 0) {
      engine_->set_parked(p, true);
    }
  }

  run_init_phases(fresh);
}

void ParallelMd::run_init_phases(bool fresh) {
  // Initial force computation so the first step's drift has f(t). On resume
  // (checkpoint constructor or rollback) the forces recompute bitwise from
  // the restored positions.
  engine_->run_phase([this](sim::Comm& comm) {
    const int me = membership_.role_of(comm.rank());
    if (me < 0) return;  // spare or roleless host: idle at the barrier
    send_halo(comm, *ranks_[static_cast<std::size_t>(me)], me, kTagInitHalo);
  });
  engine_->run_phase([this, fresh](sim::Comm& comm) {
    const int me = membership_.role_of(comm.rank());
    if (me < 0) return;
    Rank& rank = *ranks_[static_cast<std::size_t>(me)];
    absorb_halo(comm, rank, me, kTagInitHalo);
    target_owned_cells(rank, me);
    const double seconds =
        rank.compute_forces(comm, engine_->model(), grid_, lj_).second;
    if (fresh) rank.last_busy = seconds;
  });
}

sim::Buffer ParallelMd::checkpoint() const {
  sim::Packer packer;
  packer.put(static_cast<std::int32_t>(config_.pe_side));
  packer.put(static_cast<std::int32_t>(config_.m));
  packer.put(step_count_);
  packer.put(box_);
  for (int r = 0; r < layout_.pe_count(); ++r) {
    const Rank& rank = *ranks_[static_cast<std::size_t>(r)];
    packer.put_vector(rank.owned);
    std::vector<std::int32_t> owners(
        static_cast<std::size_t>(layout_.num_columns()));
    for (int col = 0; col < layout_.num_columns(); ++col) {
      owners[static_cast<std::size_t>(col)] =
          static_cast<std::int32_t>(rank.map.owner(col));
    }
    packer.put_vector(owners);
    packer.put(rank.last_busy);
    packer.put(rank.force_seconds);
  }
  return md::seal_checkpoint(md::CheckpointKind::kParallel, packer.take());
}

ParallelMd::~ParallelMd() {
  if (checker_) {
    engine_->set_checker(nullptr);
  }
}

void ParallelMd::verify_step_invariants() const {
  if (checker_) {
    // All six phases have run: every send must be consumed, every
    // collective completed, all traffic neighbour-confined.
    checker_->require_clean();
    // The step's trace is clean; drop it so a long run stays O(1) per step.
    checker_->reset();
  }
  if (dlb_active_this_step_) {
    // An attempt in which a role crashed leaves that role's columns
    // unclaimed. With healing the recovery driver repairs them after the
    // step, and the caller (and the chaos battery) asserts the repaired
    // state via check_ownership(); without it the next receive from the
    // dead role fails as peer-dead, in every build.
    for (int l = 0; l < layout_.pe_count(); ++l) {
      if (!role_live(l)) return;
    }
    const core::InvariantReport report = check_ownership();
    if (!report.ok) {
      std::ostringstream os;
      os << "permanent-cell invariants violated after DLB step "
         << step_count_ << ":";
      for (const auto& violation : report.violations) {
        os << "\n  " << violation;
      }
      PCMD_CHECK_MSG(false, os.str());
    }
  }
}

int ParallelMd::column_of_position(const Vec3& position) const {
  const md::CellCoord cell = grid_.coord_of(grid_.cell_of_position(position));
  return layout_.column_id(cell.x, cell.y);
}

void ParallelMd::target_owned_cells(Rank& rank, int me) const {
  auto& targets = rank.target_cells;
  targets.clear();
  const auto cols = rank.map.columns_of(me);
  targets.reserve(cols.size() * grid_.nz());
  for (const int col : cols) {
    const auto [cx, cy] = layout_.column_coord(col);
    for (int z = 0; z < grid_.nz(); ++z) {
      targets.push_back(grid_.flat_index({cx, cy, z}));
    }
  }
  std::sort(targets.begin(), targets.end());
}

void ParallelMd::send_to(sim::Comm& comm, Rank& rank, int dst, int tag,
                         sim::Buffer payload) {
  if (healing_enabled() &&
      rank.peer_alive[static_cast<std::size_t>(dst)] == 0) {
    return;  // survivors do not talk to the dead
  }
  const int host = membership_.physical_of(dst);
  if (host < 0) return;  // retired role: nobody is listening
  if (config_.fault_tolerance.reliable) {
    rank.channel.send(comm, host, tag, payload);
  } else {
    comm.send(host, tag, std::move(payload));
  }
}

std::optional<sim::Buffer> ParallelMd::recv_from(sim::Comm& comm, Rank& rank,
                                                 int src, int tag) {
  if (healing_enabled() &&
      rank.peer_alive[static_cast<std::size_t>(src)] == 0) {
    return std::nullopt;  // already known dead; nothing was sent to us
  }
  const int host = membership_.physical_of(src);
  if (host < 0) {
    // Retired role: permanently silent.
    rank.peer_alive[static_cast<std::size_t>(src)] = 0;
    return std::nullopt;
  }
  if (!healing_enabled()) {
    if (config_.fault_tolerance.reliable) {
      return rank.channel.recv(comm, host, tag);
    }
    return comm.recv(host, tag);
  }
  // Healing always routes through the reliable channel. A silent peer is
  // dead in this role's view; ownership is left alone, because the
  // recovery driver repairs it between phases and rolls this doomed
  // attempt back.
  auto payload = rank.channel.recv_deadline(comm, host, tag, kRecvTimeout);
  if (!payload) rank.peer_alive[static_cast<std::size_t>(src)] = 0;
  return payload;
}

void ParallelMd::span_begin(sim::Comm& comm, std::uint32_t name) const {
  if (config_.trace) {
    config_.trace->span_begin(comm.rank(), name, comm.clock());
  }
}

void ParallelMd::span_end(sim::Comm& comm, std::uint32_t name) const {
  if (config_.trace) {
    config_.trace->span_end(comm.rank(), name, comm.clock());
  }
}

void ParallelMd::send_halo(sim::Comm& comm, Rank& rank, int me, int tag) {
  const auto& col_torus = layout_.column_torus();
  const auto neighbors = layout_.pe_torus().neighbors8(me);

  // My boundary particles are about to be published to every neighbour; the
  // halo messages order each neighbour's read after this write.
  PCMD_HB_ACCESS(comm, "halo", me, /*is_write=*/true, "halo");

  // Which of my columns each neighbour needs: my column c goes to the owner
  // of every column adjacent to c. All the index structures below are
  // per-rank scratch: cleared here, capacity kept across steps.
  auto& columns_for = rank.halo_columns_for;
  columns_for.resize(neighbors.size());
  for (auto& cols : columns_for) cols.clear();
  for (const int col : rank.map.columns_of(me)) {
    const auto [cx, cy] = layout_.column_coord(col);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        if (dx == 0 && dy == 0) continue;
        const int adj = col_torus.rank_of({cx + dx, cy + dy});
        const int owner = rank.map.owner(adj);
        if (owner == me) continue;
        const auto it = std::find(neighbors.begin(), neighbors.end(), owner);
        if (it == neighbors.end()) {
          std::ostringstream os;
          os << "halo plan: column " << adj << " owned by rank " << owner
             << " which is not a neighbour of rank " << me
             << " — ownership invariant violated";
          throw std::logic_error(os.str());
        }
        columns_for[it - neighbors.begin()].push_back(col);
      }
    }
  }

  // Index owned particles by column once.
  auto& by_column = rank.halo_by_column;
  by_column.resize(layout_.num_columns());
  for (auto& entries : by_column) entries.clear();
  for (std::size_t i = 0; i < rank.owned.size(); ++i) {
    by_column[column_of_position(rank.owned[i].position)].push_back(
        static_cast<std::int32_t>(i));
  }

  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    auto& cols = columns_for[k];
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    auto& records = rank.halo_records;
    records.clear();
    for (const int col : cols) {
      for (const std::int32_t idx : by_column[col]) {
        records.push_back(
            {rank.owned[idx].id, rank.owned[idx].position});
      }
    }
    send_to(comm, rank, neighbors[k], tag, pack_halo(records));
  }
}

void ParallelMd::absorb_halo(sim::Comm& comm, Rank& rank, int me, int tag) {
  rank.begin_halo();
  for (const int nb : layout_.pe_torus().neighbors8(me)) {
    auto payload = recv_from(comm, rank, nb, tag);
    if (!payload) continue;  // dead neighbour: its halo is gone this step
    PCMD_HB_ACCESS(comm, "halo", nb, /*is_write=*/false, "halo");
    rank.add_halo(unpack_halo(std::move(*payload)));
  }
}

void ParallelMd::phase_a_drift_and_digest(sim::Comm& comm, int me) {
  Rank& rank = *ranks_[me];
  rank.transfers_made = 0;

  span_begin(comm, spans_.drift);
  rank.drift(comm, engine_->model(), integrator_, box_);
  span_end(comm, spans_.drift);

  // Silent data corruption: scramble one particle's velocity, keyed on the
  // *physical* host and its clock so both engines corrupt exactly the same
  // steps. Applied after the drift so the position stays in an owned column
  // (the corruption surfaces through the physics, not a protocol error).
  // Healing runs only — without a watchdog it would just falsify results.
  if (healing_enabled()) {
    if (auto* injector = engine_->fault_injector()) {
      const double factor = injector->sdc_factor(comm.rank(), comm.clock());
      if (factor != 1.0 && !rank.owned.empty()) {
        rank.owned.front().velocity *= factor;
        injector->count_sdc();
      }
    }
  }

  std::vector<std::int32_t> columns;
  for (const int col : rank.map.columns_of(me)) {
    columns.push_back(static_cast<std::int32_t>(col));
  }
  // My digest (busy time + column list) is shared state: neighbours read it
  // in phase B, and the kTagDigest messages below are what order that read
  // after this write.
  PCMD_HB_ACCESS(comm, "digest", me, /*is_write=*/true, "drift");
  for (const int nb : layout_.pe_torus().neighbors8(me)) {
    send_to(comm, rank, nb, kTagDigest, pack_digest(rank.last_busy, columns));
  }
}

void ParallelMd::phase_b_decide_and_migrate(sim::Comm& comm, int me) {
  Rank& rank = *ranks_[me];
  const auto neighbors = layout_.pe_torus().neighbors8(me);

  core::NeighborTimes times;
  times.self_time = rank.last_busy;
  times.neighbor_times.assign(neighbors.size(), 0.0);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    auto payload = recv_from(comm, rank, neighbors[k], kTagDigest);
    if (!payload) {
      // Dead neighbour: infinitely slow, so the DLB never targets it.
      times.neighbor_times[k] = std::numeric_limits<double>::infinity();
      continue;
    }
    double busy = 0.0;
    std::vector<std::int32_t> columns;
    unpack_digest(std::move(*payload), busy, columns);
    PCMD_HB_ACCESS(comm, "digest", neighbors[k], /*is_write=*/false, "dlb");
    times.neighbor_times[k] = busy;
    for (const std::int32_t col : columns) {
      rank.map.set_owner(col, neighbors[k]);
    }
  }

  AnnounceRecord announce;
  if (dlb_active_this_step_) {
    span_begin(comm, spans_.dlb);
    // Per-column particle counts as the load proxy for the selection policy.
    std::vector<double> column_load(layout_.num_columns(), 0.0);
    for (const auto& p : rank.owned) {
      column_load[column_of_position(p.position)] += 1.0;
    }
    const core::DlbDecision decision = balancer_->decide(
        me, rank.map, times, [&](int col) { return column_load[col]; });
    if (decision.target >= 0 &&
        rank.peer_alive[static_cast<std::size_t>(decision.target)] != 0) {
      core::DlbProtocol::apply(rank.map, decision);
      // Ownership hand-off: the old owner's release must happen-before the
      // new owner's acquisition (ordered by the kTagTransfer message below).
      PCMD_HB_ACCESS(comm, "column", decision.column, /*is_write=*/true,
                     "dlb");
      announce.target = decision.target;
      announce.column = decision.column;
      rank.transfers_made = 1;
      if (config_.trace) {
        config_.trace->dlb_decision(me, decision.column, decision.target,
                                    comm.clock());
      }

      md::ParticleVector moving;
      auto keep = rank.owned.begin();
      for (auto& p : rank.owned) {
        if (column_of_position(p.position) == decision.column) {
          moving.push_back(p);
        } else {
          *keep++ = p;
        }
      }
      rank.owned.erase(keep, rank.owned.end());
      send_to(comm, rank, decision.target, kTagTransfer,
              pack_particles(moving));
    }
    span_end(comm, spans_.dlb);
  }
  for (const int nb : neighbors) {
    send_to(comm, rank, nb, kTagAnnounce, pack_announce(announce));
  }

  // Round-1 migration: particles that drifted out of my columns.
  span_begin(comm, spans_.migrate);
  std::vector<md::ParticleVector> outgoing(neighbors.size());
  auto keep = rank.owned.begin();
  for (auto& p : rank.owned) {
    const int owner = rank.map.owner(column_of_position(p.position));
    if (owner == me) {
      *keep++ = p;
      continue;
    }
    const auto it = std::find(neighbors.begin(), neighbors.end(), owner);
    if (it == neighbors.end()) {
      throw std::logic_error(
          "migration: particle crossed to a non-neighbour domain in one "
          "step — time step too large for the cell size");
    }
    outgoing[it - neighbors.begin()].push_back(p);
  }
  rank.owned.erase(keep, rank.owned.end());
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    send_to(comm, rank, neighbors[k], kTagMigrate1,
            pack_particles(outgoing[k]));
  }
  span_end(comm, spans_.migrate);
}

void ParallelMd::phase_c_absorb_and_forward(sim::Comm& comm, int me) {
  Rank& rank = *ranks_[me];
  const auto neighbors = layout_.pe_torus().neighbors8(me);

  // Announcements first, so forwarding below sees fresh ownership.
  span_begin(comm, spans_.dlb);
  std::vector<std::pair<int, int>> transfers_to_me;  // (neighbour k, column)
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    auto payload = recv_from(comm, rank, neighbors[k], kTagAnnounce);
    if (!payload) continue;  // dead neighbour announced nothing
    const AnnounceRecord announce = unpack_announce(std::move(*payload));
    if (announce.target < 0) continue;
    rank.map.set_owner(announce.column, announce.target);
    if (announce.target == me) {
      transfers_to_me.emplace_back(static_cast<int>(k), announce.column);
    }
  }
  for (const auto& [k, col] : transfers_to_me) {
    auto payload = recv_from(comm, rank, neighbors[k], kTagTransfer);
    if (!payload) continue;
    // Acquisition side of the ownership hand-off stamped in phase B.
    PCMD_HB_ACCESS(comm, "column", col, /*is_write=*/true, "dlb");
    for (const auto& p : unpack_particles(std::move(*payload))) {
      rank.owned.push_back(p);
    }
  }
  span_end(comm, spans_.dlb);

  // Round-1 migrants; forward any whose column changed hands this step.
  span_begin(comm, spans_.migrate);
  std::vector<md::ParticleVector> forward(neighbors.size());
  for (const int nb : neighbors) {
    auto payload = recv_from(comm, rank, nb, kTagMigrate1);
    if (!payload) continue;
    for (const auto& p : unpack_particles(std::move(*payload))) {
      const int owner = rank.map.owner(column_of_position(p.position));
      if (owner == me) {
        rank.owned.push_back(p);
        continue;
      }
      const auto it = std::find(neighbors.begin(), neighbors.end(), owner);
      if (it == neighbors.end()) {
        throw std::logic_error(
            "migration round 2: correct owner is not a neighbour — "
            "ownership invariant violated");
      }
      forward[it - neighbors.begin()].push_back(p);
    }
  }
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    send_to(comm, rank, neighbors[k], kTagMigrate2,
            pack_particles(forward[k]));
  }
  span_end(comm, spans_.migrate);
}

void ParallelMd::phase_d_halo_send(sim::Comm& comm, int me) {
  Rank& rank = *ranks_[me];
  span_begin(comm, spans_.migrate);
  for (const int nb : layout_.pe_torus().neighbors8(me)) {
    auto payload = recv_from(comm, rank, nb, kTagMigrate2);
    if (!payload) continue;
    for (const auto& p : unpack_particles(std::move(*payload))) {
      const int owner = rank.map.owner(column_of_position(p.position));
      if (owner != me) {
        throw std::logic_error(
            "migration round 2 delivered a particle to the wrong rank");
      }
      rank.owned.push_back(p);
    }
  }
  span_end(comm, spans_.migrate);
  span_begin(comm, spans_.halo);
  send_halo(comm, rank, me, kTagHalo);
  span_end(comm, spans_.halo);
}

void ParallelMd::phase_e_forces(sim::Comm& comm, int me) {
  Rank& rank = *ranks_[me];
  span_begin(comm, spans_.halo);
  absorb_halo(comm, rank, me, kTagHalo);
  span_end(comm, spans_.halo);
  span_begin(comm, spans_.force);
  target_owned_cells(rank, me);
  const auto [result, seconds] =
      rank.compute_forces(comm, engine_->model(), grid_, lj_);
  rank.force_seconds = seconds;
  integrator_.kick(rank.owned);
  span_end(comm, spans_.force);

  int empty = 0;
  for (const int cell : rank.target_cells) {
    if (rank.bins.cell(cell).empty()) ++empty;
  }
  const double ke = md::kinetic_energy(rank.owned);
  const double owned_cells = static_cast<double>(rank.target_cells.size());

  // Collectives fill the logical slot `me`, so the combine order — and the
  // reduced values, bit for bit — are independent of which physical rank
  // hosts each role (see Comm::collective_begin).
  const double sums[8] = {result.potential_energy,
                          ke,
                          static_cast<double>(result.pair_evaluations),
                          static_cast<double>(rank.owned.size()),
                          static_cast<double>(empty),
                          static_cast<double>(rank.transfers_made),
                          rank.force_seconds,
                          result.virial};
  comm.collective_begin(sim::ReduceOp::kSum, sums, me);
  // Fourth max slot, healing runs only: the velocity alarm. A role with a
  // particle faster than kVelocityAlarm flags itself as role + 1 (0 = no
  // alarm); the max identifies one suspect for the watchdog.
  const bool alarm =
      healing_enabled() &&
      std::any_of(rank.owned.begin(), rank.owned.end(),
                  [](const md::Particle& p) {
                    return std::abs(p.velocity.x) > kVelocityAlarm ||
                           std::abs(p.velocity.y) > kVelocityAlarm ||
                           std::abs(p.velocity.z) > kVelocityAlarm;
                  });
  const double maxes[4] = {rank.force_seconds,
                           owned_cells * kComposite + empty,
                           empty * kComposite + owned_cells,
                           alarm ? static_cast<double>(me + 1) : 0.0};
  comm.collective_begin(sim::ReduceOp::kMax,
                        std::span(maxes, healing_enabled() ? 4 : 3), me);
  const double mins[1] = {rank.force_seconds};
  comm.collective_begin(sim::ReduceOp::kMin, mins, me);

  rank.last_busy = rank.busy_accum;
}

void ParallelMd::phase_f_finish(sim::Comm& comm, int me) {
  Rank& rank = *ranks_[me];
  rank.finish_reductions(comm);

  const std::int64_t step_number = step_count_ + 1;
  if (thermostat_ && thermostat_->due(step_number)) {
    const double ke_total = rank.sums[1];
    const auto n_total = static_cast<std::int64_t>(rank.sums[3]);
    const double factor = thermostat_->scale_factor(ke_total, n_total);
    md::RescaleThermostat::apply(rank.owned, factor);
  }
}

ParallelStepStats ParallelMd::attempt_step() {
  const double makespan_before = engine_->makespan();
  const std::int64_t step_number = step_count_ + 1;
  dlb_active_this_step_ = config_.balancer.kind != BalancerKind::kNone &&
                          step_number % config_.dlb.interval == 0;

  const auto role_phase = [this](void (ParallelMd::*body)(sim::Comm&, int)) {
    engine_->run_phase([this, body](sim::Comm& comm) {
      const int me = membership_.role_of(comm.rank());
      if (me < 0) return;  // spare or roleless host: idle at the barrier
      (this->*body)(comm, me);
    });
  };
  role_phase(&ParallelMd::phase_a_drift_and_digest);
  role_phase(&ParallelMd::phase_b_decide_and_migrate);
  role_phase(&ParallelMd::phase_c_absorb_and_forward);
  role_phase(&ParallelMd::phase_d_halo_send);
  role_phase(&ParallelMd::phase_e_forces);
  role_phase(&ParallelMd::phase_f_finish);

  ++step_count_;
  if (PCMD_ASSERTS_ENABLED) {
    verify_step_invariants();
  }

  // Reduced results are read from the lowest role whose host is still
  // running — every live role holds identical copies.
  int reporter = 0;
  while (reporter < layout_.pe_count() - 1 && !role_live(reporter)) {
    ++reporter;
  }
  const Rank& r0 = *ranks_[static_cast<std::size_t>(reporter)];
  ParallelStepStats stats;
  stats.step = step_count_;
  stats.t_step = engine_->makespan() - makespan_before;
  int live_roles = 0;
  for (int l = 0; l < layout_.pe_count(); ++l) {
    if (role_live(l)) ++live_roles;
  }
  stats.live_ranks = live_roles;
  stats.epoch = membership_.epoch();

  // Cumulative channel totals; the lost_* terms preserve the counts of
  // channels reset by a failover, keeping the totals monotone.
  std::uint64_t retransmissions = lost_retransmissions_;
  std::uint64_t corrupt_discarded = lost_corrupt_discarded_;
  for (const auto& rank : ranks_) {
    const auto& cc = rank->channel.counters();
    retransmissions += cc.retransmissions;
    corrupt_discarded += cc.corrupt_discarded;
  }
  // Engine-level count: one per expired deadline, whichever path took it.
  std::uint64_t timeouts = 0;
  for (int r = 0; r < engine_->size(); ++r) {
    timeouts += engine_->counters(r).recv_timeouts;
  }
  stats.retransmissions = retransmissions - prev_retransmissions_;
  stats.corrupt_discarded = corrupt_discarded - prev_corrupt_discarded_;
  stats.recv_timeouts = timeouts - prev_recv_timeouts_;
  prev_retransmissions_ = retransmissions;
  prev_corrupt_discarded_ = corrupt_discarded;
  prev_recv_timeouts_ = timeouts;

  last_suspect_ = -1;
  if (r0.sums.size() >= 8 && r0.maxes.size() >= 3 && !r0.mins.empty()) {
    stats.potential_energy = r0.sums[0];
    stats.kinetic_energy = r0.sums[1];
    stats.pair_evaluations = static_cast<std::uint64_t>(r0.sums[2]);
    stats.total_particles = static_cast<std::int64_t>(r0.sums[3]);
    stats.empty_cells = static_cast<int>(r0.sums[4]);
    stats.transfers = static_cast<int>(r0.sums[5]);
    stats.force_max = r0.maxes[0];
    stats.force_min = r0.mins[0];
    stats.temperature =
        md::temperature_from_ke(stats.kinetic_energy, stats.total_particles);
    stats.virial = r0.sums[7];
    stats.pressure = md::pressure(stats.temperature, stats.virial,
                                  stats.total_particles, box_.volume());

    const auto [cells_a, empty_a] = decode_composite(r0.maxes[1]);
    stats.max_domain_cells = cells_a;
    stats.max_domain_empty = empty_a;
    const auto [empty_b, cells_b] = decode_composite(r0.maxes[2]);
    stats.max_empty_cells = empty_b;
    stats.max_empty_domain_cells = cells_b;

    stats.force_avg =
        r0.sums[6] / static_cast<double>(std::max(stats.live_ranks, 1));
    // Balancer quality from the already-reduced force times: no extra
    // collective slots, so the virtual-time makespan is untouched.
    stats.imbalance =
        obs::fractional_load_imbalance(stats.force_max, stats.force_avg);
    stats.cells_moved = stats.transfers * layout_.cells_axis();

    if (healing_enabled() && r0.maxes.size() >= 4) {
      last_suspect_ = static_cast<int>(r0.maxes[3]) - 1;
    }
  }

  if (config_.trace) {
    // Running totals as Chrome-trace counter tracks, next to the spans.
    const double now = engine_->makespan();
    const int host = std::max(membership_.physical_of(reporter), 0);
    config_.trace->counter(host, spans_.ctr_retransmissions, now,
                           static_cast<double>(retransmissions));
    config_.trace->counter(host, spans_.ctr_recv_timeouts, now,
                           static_cast<double>(timeouts));
    if (auto* injector = engine_->fault_injector()) {
      const auto fc = injector->counters();
      config_.trace->counter(
          host, spans_.ctr_faults_injected, now,
          static_cast<double>(fc.messages_dropped + fc.messages_corrupted +
                              fc.messages_delayed));
    }
    // Per-step gauges (not running totals: a rolled-back attempt's values
    // must not accumulate).
    config_.trace->counter(host, spans_.ctr_imbalance, now, stats.imbalance);
    config_.trace->counter(host, spans_.ctr_cells_moved, now,
                           static_cast<double>(stats.cells_moved));
  }
  return stats;
}

ParallelStepStats ParallelMd::step() {
  // The step this call must deliver: a rollback rewinds step_count_, and
  // every rolled-back step is then replayed inside this same call so the
  // caller always observes a monotone step sequence.
  const std::int64_t target = step_count_ + 1;
  int recoveries = 0;
  for (;;) {
    maybe_buddy_round();
    ParallelStepStats stats = attempt_step();
    if (!healing_enabled()) return stats;

    const auto check_budget = [&] {
      if (++recoveries > kMaxRecoveryRounds) {
        throw RecoveryError(
            "self-healing: recovery budget exhausted at step " +
            std::to_string(target) + " (" +
            std::to_string(kMaxRecoveryRounds) + " rounds)");
      }
    };

    const auto dead = scan_dead_roles();
    if (!dead.empty()) {
      check_budget();
      recover_from_deaths(dead);
      continue;
    }

    const bool rebase = thermostat_ && thermostat_->due(step_count_);
    const auto report = watchdog_.inspect(
        stats.potential_energy + stats.kinetic_energy, rebase, last_suspect_);
    if (report.verdict == Watchdog::Verdict::kClean) {
      if (step_count_ < target) continue;  // replaying rolled-back steps
      stats.checkpoint_bytes =
          recovery_.checkpoint_bytes - prev_recovery_.checkpoint_bytes;
      stats.rollbacks = recovery_.rollbacks - prev_recovery_.rollbacks;
      stats.failovers = recovery_.failovers - prev_recovery_.failovers;
      stats.particles_recovered =
          recovery_.particles_recovered - prev_recovery_.particles_recovered;
      stats.epoch = membership_.epoch();
      prev_recovery_ = recovery_;
      if (config_.trace) {
        const double now = engine_->makespan();
        int host = 0;
        for (int p = 0; p < engine_->size(); ++p) {
          if (engine_->alive(p)) {
            host = p;
            break;
          }
        }
        config_.trace->counter(host, spans_.ctr_checkpoint_bytes, now,
                               static_cast<double>(recovery_.checkpoint_bytes));
        config_.trace->counter(host, spans_.ctr_rollbacks, now,
                               static_cast<double>(recovery_.rollbacks));
        config_.trace->counter(host, spans_.ctr_failovers, now,
                               static_cast<double>(recovery_.failovers));
      }
      return stats;
    }

    check_budget();
    if (report.verdict == Watchdog::Verdict::kDeclareDead) {
      // The suspect keeps producing corrupt state past the rollback budget:
      // excise it exactly as a crash would, then let failover repair it.
      const int host = membership_.physical_of(report.suspect);
      if (host >= 0) {
        engine_->declare_dead(host);
      }
      ++recovery_.declared_dead;
      watchdog_.note_recovered();
      recover_from_deaths({report.suspect});
      continue;
    }

    // Verdict::kRollback: every role rewinds to the newest generation all of
    // them can restore, then the steps replay.
    watchdog_.note_rollback();
    perform_rollback(choose_generation({}), {}, {});
  }
}

ParallelStepStats ParallelMd::run(std::int64_t steps) {
  ParallelStepStats stats;
  for (std::int64_t i = 0; i < steps; ++i) stats = step();
  return stats;
}

int ParallelMd::buddy_of(int role) const {
  const auto& torus = layout_.pe_torus();
  sim::Coord2 c = torus.coord_of(role);
  ++c.j;
  return torus.rank_of(c);
}

int ParallelMd::ward_of(int role) const {
  const auto& torus = layout_.pe_torus();
  sim::Coord2 c = torus.coord_of(role);
  --c.j;
  return torus.rank_of(c);
}

void ParallelMd::maybe_buddy_round() {
  if (!healing_enabled()) return;
  const int every = std::max(1, config_.fault_tolerance.healing.buddy_every);
  if (step_count_ % every != 0) return;
  if (last_generation_ == step_count_) return;  // this generation is covered
  buddy_round();
}

void ParallelMd::buddy_round() {
  const std::int64_t gen = step_count_;
  // Phase 1: every live role seals its state and ships it to its buddy (the
  // +1-column torus neighbour), keeping its own copy in the 2-deep window.
  engine_->run_phase([this, gen](sim::Comm& comm) {
    const int me = membership_.role_of(comm.rank());
    if (me < 0) return;
    Rank& rank = *ranks_[static_cast<std::size_t>(me)];
    span_begin(comm, spans_.buddy);
    RankEnvelope envelope;
    envelope.role = me;
    envelope.generation = gen;
    envelope.owned = rank.owned;
    envelope.owners.resize(static_cast<std::size_t>(layout_.num_columns()));
    for (int col = 0; col < layout_.num_columns(); ++col) {
      envelope.owners[static_cast<std::size_t>(col)] =
          static_cast<std::int32_t>(rank.map.owner(col));
    }
    envelope.last_busy = rank.last_busy;
    envelope.force_seconds = rank.force_seconds;
    sim::Buffer sealed = pack_rank_envelope(envelope);
    rank.self_snap.push(gen, sealed);
    send_to(comm, rank, buddy_of(me), kTagBuddy, std::move(sealed));
    span_end(comm, spans_.buddy);
  });
  // Phase 2: absorb the ward's envelope (the -1-column neighbour's state).
  engine_->run_phase([this, gen](sim::Comm& comm) {
    const int me = membership_.role_of(comm.rank());
    if (me < 0) return;
    Rank& rank = *ranks_[static_cast<std::size_t>(me)];
    span_begin(comm, spans_.buddy);
    if (auto payload = recv_from(comm, rank, ward_of(me), kTagBuddy)) {
      rank.ward_snap.push(gen, std::move(*payload));
    }
    span_end(comm, spans_.buddy);
  });
  // Driver-side accounting (counters are never touched by phase bodies).
  for (int l = 0; l < layout_.pe_count(); ++l) {
    if (!role_live(l)) continue;
    const Rank& rank = *ranks_[static_cast<std::size_t>(l)];
    if (const auto* sealed = rank.self_snap.find(gen)) {
      recovery_.checkpoint_bytes += sealed->size();
    }
  }
  ++recovery_.generations;
  last_generation_ = gen;
}

std::vector<int> ParallelMd::scan_dead_roles() const {
  std::vector<int> dead;
  for (int l = 0; l < layout_.pe_count(); ++l) {
    const int host = membership_.physical_of(l);
    if (host >= 0 && !engine_->alive(host)) {
      dead.push_back(l);
    }
  }
  return dead;
}

void ParallelMd::recover_from_deaths(const std::vector<int>& dead_roles) {
  const double begin = engine_->makespan();
  // A spare that died while parked must never be promoted.
  for (int p = 0; p < engine_->size(); ++p) {
    if (membership_.is_spare(p) && !engine_->alive(p)) {
      membership_.spare_died(p);
    }
  }
  std::vector<int> promoted;
  std::vector<int> retired;
  for (const int l : dead_roles) {
    // The dead host's in-memory state is gone with it; drop it here so
    // nothing stale leaks into a successor. Its channel counters fold into
    // the lost_* totals first so the cumulative stats stay monotone.
    Rank& rank = *ranks_[static_cast<std::size_t>(l)];
    const auto& cc = rank.channel.counters();
    lost_retransmissions_ += cc.retransmissions;
    lost_corrupt_discarded_ += cc.corrupt_discarded;
    rank.channel = sim::ReliableChannel();
    rank.owned.clear();
    rank.with_halo.clear();
    rank.self_snap = {};
    rank.ward_snap = {};
    rank.sums.clear();
    rank.maxes.clear();
    rank.mins.clear();
    const int host = membership_.fail_over(l);
    if (host >= 0) {
      engine_->set_parked(host, false);
      promoted.push_back(l);
      ++recovery_.failovers;
    } else {
      retired.push_back(l);
      ++recovery_.roles_retired;
    }
  }
  // Both promoted and retired roles restore from their buddy's replica;
  // survivors restore from their own window.
  std::vector<int> from_buddy = promoted;
  from_buddy.insert(from_buddy.end(), retired.begin(), retired.end());
  const std::int64_t gen = choose_generation(from_buddy);
  perform_rollback(gen, promoted, retired);
  watchdog_.note_recovered();
  // Re-replicate immediately: the restored state (including any adoption of
  // retired roles' cells) becomes the new recovery point, so a second crash
  // right away still recovers losslessly.
  buddy_round();
  driver_span(spans_.failover, begin, engine_->makespan());
}

std::int64_t ParallelMd::choose_generation(
    const std::vector<int>& promoted) const {
  const auto needs_buddy = [&](int l) {
    return std::find(promoted.begin(), promoted.end(), l) != promoted.end();
  };
  std::vector<std::int64_t> candidates;
  for (int l = 0; l < layout_.pe_count(); ++l) {
    const Rank& rank = *ranks_[static_cast<std::size_t>(l)];
    for (const auto& window : {&rank.self_snap, &rank.ward_snap}) {
      for (const std::int64_t gen : window->generations()) {
        if (gen >= 0) candidates.push_back(gen);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(), std::greater<>());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (const std::int64_t gen : candidates) {
    bool ok = true;
    for (int l = 0; l < layout_.pe_count() && ok; ++l) {
      if (needs_buddy(l)) {
        // A promoted (or retiring) role needs its buddy alive and holding
        // the ward envelope of this generation.
        const int buddy = buddy_of(l);
        ok = role_live(buddy) &&
             ranks_[static_cast<std::size_t>(buddy)]->ward_snap.find(gen) !=
                 nullptr;
      } else if (role_live(l)) {
        ok = ranks_[static_cast<std::size_t>(l)]->self_snap.find(gen) !=
             nullptr;
      }
      // Roles retired in an earlier recovery need no state at all.
    }
    if (ok) return gen;
  }
  throw RecoveryError(
      "self-healing: no generation is restorable by every live role "
      "(adjacent buddies lost together, or a crash before the first "
      "replication)");
}

void ParallelMd::perform_rollback(std::int64_t gen,
                                  const std::vector<int>& promoted,
                                  const std::vector<int>& retired) {
  const double begin = engine_->makespan();
  ++recovery_.rollbacks;

  // Publish the repaired membership to every survivor's local view before
  // any restore traffic: a promoted role must be reachable again, a retired
  // one silent forever.
  for (int l = 0; l < layout_.pe_count(); ++l) {
    if (!role_live(l)) continue;
    Rank& rank = *ranks_[static_cast<std::size_t>(l)];
    for (int o = 0; o < layout_.pe_count(); ++o) {
      rank.peer_alive[static_cast<std::size_t>(o)] = role_live(o) ? 1 : 0;
    }
  }

  // R1: each buddy replays its ward envelope to the promoted successor. The
  // channel streams are keyed by the *physical* peer, so the promoted host's
  // streams start fresh at sequence 0 on both ends.
  engine_->run_phase([this, gen, &promoted](sim::Comm& comm) {
    const int me = membership_.role_of(comm.rank());
    if (me < 0) return;
    Rank& rank = *ranks_[static_cast<std::size_t>(me)];
    const int ward = ward_of(me);
    if (std::find(promoted.begin(), promoted.end(), ward) == promoted.end()) {
      return;
    }
    span_begin(comm, spans_.failover);
    if (const auto* sealed = rank.ward_snap.find(gen)) {
      send_to(comm, rank, ward, kTagRestore, *sealed);
    }
    span_end(comm, spans_.failover);
  });

  // R2: every live role restores the generation — promoted roles from the
  // envelope just received, survivors from their own sealed copy. Envelope
  // validation happens before any state is touched (unpack_rank_envelope).
  engine_->run_phase([this, gen, &promoted](sim::Comm& comm) {
    const int me = membership_.role_of(comm.rank());
    if (me < 0) return;
    Rank& rank = *ranks_[static_cast<std::size_t>(me)];
    span_begin(comm, spans_.rollback);
    sim::Buffer sealed;
    if (std::find(promoted.begin(), promoted.end(), me) != promoted.end()) {
      auto payload = recv_from(comm, rank, buddy_of(me), kTagRestore);
      if (!payload) {
        throw RecoveryError("self-healing: buddy of promoted role " +
                            std::to_string(me) + " fell silent mid-failover");
      }
      sealed = std::move(*payload);
      // recover_from_deaths emptied the promoted role's window.
      rank.self_snap.push(gen, sealed);
    } else if (const auto* own = rank.self_snap.find(gen)) {
      sealed = *own;
    } else {
      throw RecoveryError("self-healing: role " + std::to_string(me) +
                          " lost its own envelope of generation " +
                          std::to_string(gen));
    }
    const RankEnvelope envelope =
        unpack_rank_envelope(std::move(sealed), layout_.num_columns());
    if (envelope.role != me) {
      throw RecoveryError("self-healing: envelope for role " +
                          std::to_string(envelope.role) +
                          " replayed onto role " + std::to_string(me));
    }
    rank.owned = envelope.owned;
    for (int col = 0; col < layout_.num_columns(); ++col) {
      rank.map.set_owner(col,
                         envelope.owners[static_cast<std::size_t>(col)]);
    }
    rank.last_busy = envelope.last_busy;
    rank.force_seconds = envelope.force_seconds;
    span_end(comm, spans_.rollback);
  });

  for (const int l : promoted) {
    recovery_.particles_recovered +=
        ranks_[static_cast<std::size_t>(l)]->owned.size();
  }

  // Retired roles: no rank will ever host them again, so the driver replays
  // the buddy's ward envelope directly — survivors adopt the columns (home
  // role when live, else the lowest live role) and absorb the particles.
  // Adoption can hand columns to non-neighbour roles on tori wider than
  // 3x3; the halo planner then rejects the layout (documented retire-path
  // caveat).
  int lowest_live = -1;
  for (int l = 0; l < layout_.pe_count(); ++l) {
    if (role_live(l)) {
      lowest_live = l;
      break;
    }
  }
  if (lowest_live < 0) {
    throw RecoveryError("self-healing: no live role left to roll back");
  }
  for (const int l : retired) {
    const auto* sealed =
        ranks_[static_cast<std::size_t>(buddy_of(l))]->ward_snap.find(gen);
    if (sealed == nullptr) {
      throw RecoveryError("self-healing: envelope of retired role " +
                          std::to_string(l) + " is gone");
    }
    const RankEnvelope envelope =
        unpack_rank_envelope(*sealed, layout_.num_columns());
    std::vector<int> successor_of(
        static_cast<std::size_t>(layout_.num_columns()), -1);
    for (int col = 0; col < layout_.num_columns(); ++col) {
      if (envelope.owners[static_cast<std::size_t>(col)] != l) continue;
      const int home = layout_.home_rank(col);
      const int successor = role_live(home) ? home : lowest_live;
      successor_of[static_cast<std::size_t>(col)] = successor;
      for (int o = 0; o < layout_.pe_count(); ++o) {
        if (role_live(o)) {
          ranks_[static_cast<std::size_t>(o)]->map.set_owner(col, successor);
        }
      }
    }
    for (const auto& particle : envelope.owned) {
      const int col = column_of_position(particle.position);
      int successor = successor_of[static_cast<std::size_t>(col)];
      if (successor < 0) {
        successor = lowest_live;
      }
      ranks_[static_cast<std::size_t>(successor)]->owned.push_back(particle);
    }
    recovery_.particles_recovered += envelope.owned.size();
  }

  // Rewind the step counter and recompute forces from the restored
  // positions, keeping the envelope busy times like a checkpoint resume.
  step_count_ = gen;
  run_init_phases(/*fresh=*/false);
  driver_span(spans_.rollback, begin, engine_->makespan());
}

void ParallelMd::driver_span(std::uint32_t name, double begin,
                             double end) const {
  if (!config_.trace) return;
  int host = 0;
  for (int p = 0; p < engine_->size(); ++p) {
    if (engine_->alive(p)) {
      host = p;
      break;
    }
  }
  config_.trace->span_begin(host, name, begin);
  config_.trace->span_end(host, name, end);
}

md::ParticleVector ParallelMd::gather_particles() const {
  md::ParticleVector all;
  for (int r = 0; r < layout_.pe_count(); ++r) {
    if (!role_live(r)) continue;  // an unrecovered dead role's particles
    const auto& rank = ranks_[static_cast<std::size_t>(r)];
    all.insert(all.end(), rank->owned.begin(), rank->owned.end());
  }
  std::sort(all.begin(), all.end(),
            [](const md::Particle& a, const md::Particle& b) {
              return a.id < b.id;
            });
  return all;
}

const core::ColumnMap& ParallelMd::column_map_view(int rank) const {
  return ranks_.at(rank)->map;
}

core::InvariantReport ParallelMd::check_ownership() const {
  core::InvariantReport report;

  // Authoritative ownership: rank r owns column c iff r's *own* map says so.
  // Exactly one rank may claim each column. Crashed ranks' frozen views are
  // excluded — after recovery their columns belong to the adopters.
  std::vector<int> truth(layout_.num_columns(), -1);
  for (int r = 0; r < layout_.pe_count(); ++r) {
    if (!role_live(r)) continue;
    for (const int col : ranks_[r]->map.columns_of(r)) {
      if (truth[col] != -1) {
        std::ostringstream os;
        os << "column " << col << " claimed by both rank " << truth[col]
           << " and rank " << r;
        report.fail(os.str());
      }
      truth[col] = r;
    }
  }
  core::ColumnMap authoritative(layout_);
  for (int col = 0; col < layout_.num_columns(); ++col) {
    if (truth[col] == -1) {
      std::ostringstream os;
      os << "column " << col << " claimed by no rank";
      report.fail(os.str());
    } else {
      authoritative.set_owner(col, truth[col]);
    }
  }
  // Crash-aware structural check: columns homed on dead ranks are adopted
  // by survivors and exempt from the static placement rules.
  std::vector<char> alive(static_cast<std::size_t>(layout_.pe_count()), 1);
  for (int r = 0; r < layout_.pe_count(); ++r) {
    alive[static_cast<std::size_t>(r)] = role_live(r) ? 1 : 0;
  }
  const auto structural = core::check_invariants(layout_, authoritative, &alive,
                                                 membership_.epoch());
  if (!structural.ok) {
    for (const auto& v : structural.violations) {
      report.fail(v);
    }
  }

  // Local-view freshness where it matters: a rank's map must be correct for
  // every column adjacent to one of its own columns — those are the entries
  // halo planning and migration consult. (Entries for far columns may lag by
  // one step's announcements; the protocol never reads them.)
  const auto& col_torus = layout_.column_torus();
  for (int r = 0; r < layout_.pe_count(); ++r) {
    if (!role_live(r)) continue;
    for (const int col : ranks_[r]->map.columns_of(r)) {
      const auto [cx, cy] = layout_.column_coord(col);
      for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
          const int adj = col_torus.rank_of({cx + dx, cy + dy});
          if (ranks_[r]->map.owner(adj) != truth[adj]) {
            std::ostringstream os;
            os << "rank " << r << " has a stale owner for column " << adj
               << " (thinks " << ranks_[r]->map.owner(adj) << ", truth "
               << truth[adj] << ") adjacent to its own column " << col;
            report.fail(os.str());
          }
        }
      }
    }
  }
  // Every particle must sit in a column its holder owns.
  for (int r = 0; r < layout_.pe_count(); ++r) {
    if (!role_live(r)) continue;
    for (const auto& p : ranks_[r]->owned) {
      const int col = column_of_position(p.position);
      if (ranks_[r]->map.owner(col) != r) {
        std::ostringstream os;
        os << "rank " << r << " holds particle " << p.id
           << " in column " << col << " owned by " << ranks_[r]->map.owner(col);
        report.fail(os.str());
      }
    }
  }
  return report;
}

double ParallelMd::force_seconds(int rank) const {
  return ranks_.at(rank)->force_seconds;
}

}  // namespace pcmd::ddm
