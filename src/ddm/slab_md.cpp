#include "ddm/slab_md.hpp"

#include "ddm/wire.hpp"
#include "md/observables.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pcmd::ddm {

namespace {
// Message tags local to the slab engine (distinct from the pillar engine's).
enum SlabTag : int {
  kSlabInfo = 101,      // {busy time, lo, hi, edge-layer loads, total load}
  kSlabTransfer = 102,  // particles of a shifted layer
  kSlabMigrate = 103,   // particles that drifted across a boundary
  kSlabHalo = 104,      // boundary-layer positions
  kSlabInitHalo = 105,
};

static_assert(std::is_trivially_copyable_v<SlabInfo>);

sim::Buffer pack_info(const SlabInfo& info) {
  sim::Packer packer = begin_payload(sizeof(SlabInfo));
  packer.put(info);
  return seal_payload(packer.take());
}

SlabInfo unpack_info(sim::Buffer buffer) {
  sim::Unpacker unpacker = open_payload("slab_info", std::move(buffer));
  return unpacker.get<SlabInfo>();
}

// Shift decision for the boundary between `a` (left, owns up to the
// boundary) and `b` (right, owns from the boundary): -1 when `a` sheds its
// highest layer to `b` (the boundary moves left), +1 when `b` sheds its
// lowest layer to `a` (the boundary moves right), 0 for no shift. Only the
// busier side sheds, only if it keeps at least one layer, and only if the
// layer's load is below the busy-time gap converted to load, so a shift
// never overshoots into the opposite imbalance. Both participants call
// this with the same arguments, so they always agree.
int boundary_shift(const SlabInfo& a, const SlabInfo& b) {
  const int a_layers = a.hi - a.lo;
  const int b_layers = b.hi - b.lo;
  auto gap_ok = [&](const SlabInfo& slow, const SlabInfo& fast,
                    double layer_load) {
    if (slow.busy <= 0.0 || slow.total_load <= 0.0) return false;
    const double gap_load =
        (slow.busy - fast.busy) / slow.busy * slow.total_load;
    return layer_load < gap_load;
  };
  if (a.busy > b.busy && a_layers >= 2 &&
      gap_ok(a, b, a.high_layer_load)) {
    return -1;  // a sheds its highest layer; the boundary moves left
  }
  if (b.busy > a.busy && b_layers >= 2 && gap_ok(b, a, b.low_layer_load)) {
    return +1;  // b sheds its lowest layer; the boundary moves right
  }
  return 0;
}
}  // namespace

SlabMd::SlabMd(sim::Engine& engine, const Box& box,
               const md::ParticleVector& initial, const SlabMdConfig& config)
    : engine_(&engine),
      box_(box),
      config_(config),
      grid_(config.cells_per_axis > 0
                ? md::CellGrid(box, config.cells_per_axis,
                               config.cells_per_axis, config.cells_per_axis)
                : md::CellGrid(box, config.cutoff)),
      lj_(config.cutoff),
      integrator_(config.dt) {
  if (config.pe_count < 3) {
    throw std::invalid_argument("SlabMd: need at least 3 PEs on the ring");
  }
  if (engine.size() != config.pe_count) {
    throw std::invalid_argument("SlabMd: engine rank count mismatch");
  }
  if (grid_.nx() < config.pe_count) {
    throw std::invalid_argument("SlabMd: more PEs than cell layers along x");
  }
  if (!grid_.covers_cutoff(config.cutoff)) {
    throw std::invalid_argument("SlabMd: cell edge smaller than the cut-off");
  }
  if (config.rescale_temperature) {
    thermostat_.emplace(*config.rescale_temperature, config.rescale_interval);
  }

  ranks_.reserve(config.pe_count);
  for (int r = 0; r < config.pe_count; ++r) {
    auto rank = std::make_unique<Rank>();
    // Even initial partition of the K layers.
    rank->lo = static_cast<int>(static_cast<std::int64_t>(r) * grid_.nx() /
                                config.pe_count);
    rank->hi = static_cast<int>(static_cast<std::int64_t>(r + 1) *
                                grid_.nx() / config.pe_count);
    ranks_.push_back(std::move(rank));
  }

  for (const auto& particle : initial) {
    if (!in_primary_image(particle.position, box_)) {
      throw std::invalid_argument("SlabMd: particle outside primary image");
    }
    const int layer = layer_of_position(particle.position);
    for (auto& rank : ranks_) {
      if (layer >= rank->lo && layer < rank->hi) {
        rank->owned.push_back(particle);
        break;
      }
    }
  }

  // Initial force computation so the first step's drift has f(t).
  engine_->run_phase([this](sim::Comm& comm) {
    send_halo(comm, *ranks_[comm.rank()], kSlabInitHalo);
  });
  engine_->run_phase([this](sim::Comm& comm) {
    Rank& rank = *ranks_[comm.rank()];
    receive_halo(comm, rank, kSlabInitHalo);
    cells_of_layers(rank.lo, rank.hi, rank.target_cells);
    rank.last_busy =
        rank.compute_forces(comm, engine_->model(), grid_, lj_).second;
  });
}

int SlabMd::left(int rank) const {
  return (rank + config_.pe_count - 1) % config_.pe_count;
}

int SlabMd::right(int rank) const { return (rank + 1) % config_.pe_count; }

int SlabMd::layer_of_position(const Vec3& position) const {
  return grid_.coord_of(grid_.cell_of_position(position)).x;
}

void SlabMd::cells_of_layers(int lo, int hi, std::vector<int>& cells) const {
  cells.clear();
  cells.reserve(static_cast<std::size_t>(hi - lo) * grid_.ny() * grid_.nz());
  for (int x = lo; x < hi; ++x) {
    for (int z = 0; z < grid_.nz(); ++z) {
      for (int y = 0; y < grid_.ny(); ++y) {
        cells.push_back(grid_.flat_index({x, y, z}));
      }
    }
  }
  std::sort(cells.begin(), cells.end());
}

double SlabMd::layer_load(const Rank& rank, int layer) const {
  double load = 0.0;
  for (const auto& p : rank.owned) {
    if (layer_of_position(p.position) == layer) load += 1.0;
  }
  return load;
}

void SlabMd::send_halo(sim::Comm& comm, Rank& rank, int tag) {
  auto pack_layer = [&](int layer) {
    auto& records = rank.halo_records;
    records.clear();
    for (const auto& p : rank.owned) {
      if (layer_of_position(p.position) == layer) {
        records.push_back({p.id, p.position});
      }
    }
    return pack_halo(records);
  };
  PCMD_HB_ACCESS(comm, "slab-halo", comm.rank(), /*is_write=*/true, "halo");
  comm.send(left(comm.rank()), tag, pack_layer(rank.lo));
  comm.send(right(comm.rank()), tag, pack_layer(rank.hi - 1));
}

void SlabMd::receive_halo(sim::Comm& comm, Rank& rank, int tag) {
  rank.begin_halo();
  for (const int nb : {left(comm.rank()), right(comm.rank())}) {
    const auto halo = unpack_halo(comm.recv(nb, tag));
    // After the recv: the message is the edge that orders this read behind
    // the neighbour's send_halo write.
    PCMD_HB_ACCESS(comm, "slab-halo", nb, /*is_write=*/false, "halo");
    rank.add_halo(halo);
  }
}

void SlabMd::phase_a_drift_and_times(sim::Comm& comm) {
  Rank& rank = *ranks_[comm.rank()];
  rank.shifts_made = 0;
  rank.drift(comm, engine_->model(), integrator_, box_);

  SlabInfo& info = rank.info;
  info.busy = rank.last_busy;
  info.lo = rank.lo;
  info.hi = rank.hi;
  info.low_layer_load = layer_load(rank, rank.lo);
  info.high_layer_load = layer_load(rank, rank.hi - 1);
  info.total_load = static_cast<double>(rank.owned.size());
  // My slab descriptor is shared state read by both ring neighbours in
  // phase B; the kSlabInfo messages order those reads after this write.
  PCMD_HB_ACCESS(comm, "slab-info", comm.rank(), /*is_write=*/true, "drift");
  comm.send(left(comm.rank()), kSlabInfo, pack_info(info));
  comm.send(right(comm.rank()), kSlabInfo, pack_info(info));
}

void SlabMd::phase_b_shift_and_migrate(sim::Comm& comm) {
  const int me = comm.rank();
  Rank& rank = *ranks_[me];
  const SlabInfo left_info = unpack_info(comm.recv(left(me), kSlabInfo));
  PCMD_HB_ACCESS(comm, "slab-info", left(me), /*is_write=*/false, "shift");
  const SlabInfo right_info = unpack_info(comm.recv(right(me), kSlabInfo));
  PCMD_HB_ACCESS(comm, "slab-info", right(me), /*is_write=*/false, "shift");

  const SlabInfo& my_info = rank.info;

  // Boundary ids: boundary r sits between rank r-1 and rank r; boundary 0
  // (the periodic wrap) is fixed. A boundary may shift when its parity
  // matches the step's, so each rank touches at most one of its two
  // boundaries per step.
  const std::int64_t step_number = step_count_ + 1;
  md::ParticleVector to_left, to_right;

  auto extract_layer = [&](int layer, md::ParticleVector& out) {
    auto keep = rank.owned.begin();
    for (auto& p : rank.owned) {
      if (layer_of_position(p.position) == layer) {
        out.push_back(p);
      } else {
        *keep++ = p;
      }
    }
    rank.owned.erase(keep, rank.owned.end());
  };

  if (config_.shift_enabled) {
    // The boundary positions themselves are NOT stamped for the
    // happens-before detector: both sides recompute boundary_shift from the
    // same two SlabInfo records (replicated deterministic computation), so
    // there is deliberately no ordering message between the two updates.
    // What IS shared is the shed layer's particle population — stamped at
    // extraction here and at absorption in phase C, ordered by the
    // kSlabTransfer message.
    // My left boundary has id `me`.
    if (me != 0 && (step_number + me) % 2 == 0) {
      const int shift = boundary_shift(left_info, my_info);
      if (shift == -1) {
        rank.lo -= 1;  // left neighbour sheds its top layer to me
      } else if (shift == +1) {
        PCMD_HB_ACCESS(comm, "layer", rank.lo, /*is_write=*/true, "shift");
        extract_layer(rank.lo, to_left);  // I shed my bottom layer
        rank.lo += 1;
        rank.shifts_made += 1;
      }
    }
    // My right boundary has id `me + 1` (fixed when it is the wrap).
    if (right(me) != 0 && (step_number + me + 1) % 2 == 0) {
      const int shift = boundary_shift(my_info, right_info);
      if (shift == -1) {
        PCMD_HB_ACCESS(comm, "layer", rank.hi - 1, /*is_write=*/true,
                       "shift");
        extract_layer(rank.hi - 1, to_right);  // I shed my top layer
        rank.hi -= 1;
        rank.shifts_made += 1;
      } else if (shift == +1) {
        rank.hi += 1;  // right neighbour sheds its bottom layer to me
      }
    }
  }

  // Migration: particles that drifted out of [lo, hi). A particle can end
  // up at most 2 layers outside: one layer of physical drift plus one layer
  // of boundary shift in the same step — and in the shift case the shed
  // layer now belongs to that very neighbour, so the nearest ring neighbour
  // is always the right destination.
  md::ParticleVector migrate_left, migrate_right;
  auto keep = rank.owned.begin();
  const int k = grid_.nx();
  for (auto& p : rank.owned) {
    const int layer = layer_of_position(p.position);
    if (layer >= rank.lo && layer < rank.hi) {
      *keep++ = p;
      continue;
    }
    const int below = (rank.lo - layer + k) % k;      // layers below lo
    const int above = (layer - rank.hi + 1 + k) % k;  // layers past hi-1
    if (std::min(below, above) > 2) {
      std::ostringstream os;
      os << "SlabMd: particle " << p.id << " moved " << std::min(below, above)
         << " layers past slab [" << rank.lo << ", " << rank.hi
         << ") in one step — time step too large for the cell size";
      throw std::logic_error(os.str());
    }
    (below < above ? migrate_left : migrate_right).push_back(p);
  }
  rank.owned.erase(keep, rank.owned.end());

  comm.send(left(me), kSlabTransfer, pack_particles(to_left));
  comm.send(right(me), kSlabTransfer, pack_particles(to_right));
  comm.send(left(me), kSlabMigrate, pack_particles(migrate_left));
  comm.send(right(me), kSlabMigrate, pack_particles(migrate_right));
}

void SlabMd::phase_c_absorb_and_halo(sim::Comm& comm) {
  const int me = comm.rank();
  Rank& rank = *ranks_[me];
  for (const int nb : {left(me), right(me)}) {
    bool absorbed_layer = false;
    for (const auto& p : unpack_particles(comm.recv(nb, kSlabTransfer))) {
      if (!absorbed_layer) {
        // Absorption side of the shed layer stamped in phase B; every
        // particle of one transfer sits in the one shifted layer.
        PCMD_HB_ACCESS(comm, "layer", layer_of_position(p.position),
                       /*is_write=*/true, "migrate");
        absorbed_layer = true;
      }
      rank.owned.push_back(p);
    }
    for (const auto& p : unpack_particles(comm.recv(nb, kSlabMigrate))) {
      const int layer = layer_of_position(p.position);
      if (layer < rank.lo || layer >= rank.hi) {
        throw std::logic_error("SlabMd: migrant delivered to wrong slab");
      }
      rank.owned.push_back(p);
    }
  }

  send_halo(comm, rank, kSlabHalo);
}

void SlabMd::phase_d_forces(sim::Comm& comm) {
  Rank& rank = *ranks_[comm.rank()];
  receive_halo(comm, rank, kSlabHalo);
  cells_of_layers(rank.lo, rank.hi, rank.target_cells);
  const auto [result, seconds] =
      rank.compute_forces(comm, engine_->model(), grid_, lj_);
  rank.force_seconds = seconds;
  integrator_.kick(rank.owned);

  const double ke = md::kinetic_energy(rank.owned);
  const double sums[5] = {result.potential_energy, ke,
                          static_cast<double>(rank.owned.size()),
                          static_cast<double>(rank.shifts_made),
                          rank.force_seconds};
  comm.collective_begin(sim::ReduceOp::kSum, sums);
  const double maxes[1] = {rank.force_seconds};
  comm.collective_begin(sim::ReduceOp::kMax, maxes);
  const double mins[1] = {rank.force_seconds};
  comm.collective_begin(sim::ReduceOp::kMin, mins);
  rank.last_busy = rank.busy_accum;
}

void SlabMd::phase_e_finish(sim::Comm& comm) {
  Rank& rank = *ranks_[comm.rank()];
  rank.finish_reductions(comm);
  const std::int64_t step_number = step_count_ + 1;
  if (thermostat_ && thermostat_->due(step_number)) {
    const double factor = thermostat_->scale_factor(
        rank.sums[1], static_cast<std::int64_t>(rank.sums[2]));
    md::RescaleThermostat::apply(rank.owned, factor);
  }
}

SlabStepStats SlabMd::step() {
  const double before = engine_->makespan();
  engine_->run_phase([this](sim::Comm& c) { phase_a_drift_and_times(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_b_shift_and_migrate(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_c_absorb_and_halo(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_d_forces(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_e_finish(c); });
  ++step_count_;

  const Rank& r0 = *ranks_[0];
  SlabStepStats stats;
  stats.step = step_count_;
  stats.t_step = engine_->makespan() - before;
  stats.potential_energy = r0.sums[0];
  stats.kinetic_energy = r0.sums[1];
  stats.total_particles = static_cast<std::int64_t>(r0.sums[2]);
  stats.shifts = static_cast<int>(r0.sums[3]);
  stats.force_avg = r0.sums[4] / static_cast<double>(ranks_.size());
  stats.force_max = r0.maxes[0];
  stats.force_min = r0.mins[0];
  return stats;
}

SlabStepStats SlabMd::run(std::int64_t steps) {
  SlabStepStats stats;
  for (std::int64_t i = 0; i < steps; ++i) stats = step();
  return stats;
}

md::ParticleVector SlabMd::gather_particles() const {
  md::ParticleVector all;
  for (const auto& rank : ranks_) {
    all.insert(all.end(), rank->owned.begin(), rank->owned.end());
  }
  std::sort(all.begin(), all.end(),
            [](const md::Particle& a, const md::Particle& b) {
              return a.id < b.id;
            });
  return all;
}

std::pair<int, int> SlabMd::slab_range(int rank) const {
  return {ranks_.at(rank)->lo, ranks_.at(rank)->hi};
}

bool SlabMd::check_partition(std::string* error) const {
  auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  int covered = 0;
  for (int r = 0; r < config_.pe_count; ++r) {
    const auto [lo, hi] = slab_range(r);
    if (hi - lo < 1) {
      return fail("rank " + std::to_string(r) + " owns no layer");
    }
    covered += hi - lo;
    const auto [nlo, nhi] = slab_range(right(r));
    if (right(r) != 0 && nlo != hi) {
      std::ostringstream os;
      os << "boundary mismatch between rank " << r << " (hi " << hi
         << ") and rank " << right(r) << " (lo " << nlo << ")";
      return fail(os.str());
    }
  }
  if (covered != grid_.nx()) {
    return fail("slabs cover " + std::to_string(covered) + " of " +
                std::to_string(grid_.nx()) + " layers");
  }
  // Every particle inside its owner's slab.
  for (int r = 0; r < config_.pe_count; ++r) {
    const auto [lo, hi] = slab_range(r);
    for (const auto& p : ranks_[r]->owned) {
      const int layer = layer_of_position(p.position);
      if (layer < lo || layer >= hi) {
        return fail("rank " + std::to_string(r) +
                    " holds a particle outside its slab");
      }
    }
  }
  if (error) error->clear();
  return true;
}

}  // namespace pcmd::ddm
