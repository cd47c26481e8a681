// 1-D slab decomposition with dynamic boundary shifting — the prior-work
// baseline the paper argues against for 3-D simulations (refs [4] Brugé &
// Fornili and [5] Kohring: one-dimensional DDM balancing load by moving the
// domain boundary along one axis).
//
// The simulation box is cut into K layers of cells along x; PE i owns the
// contiguous layers [boundary[i], boundary[i+1]) and the PEs form a ring.
// Dynamic balancing shifts whole layers across a boundary toward the faster
// neighbour (Kohring's discrete variant). To keep the shifts race-free the
// ring alternates: even boundaries may move on even steps, odd boundaries on
// odd steps, and both PEs of a boundary compute the same decision from the
// times they exchanged.
//
// This engine exists as a baseline: its halo is a full K x K layer per side
// (it does not shrink with P) and its balancing granularity is an entire
// layer, which is why the paper's square-pillar DLB wins for 3-D; see
// bench/ablation_baseline_1d.
#pragma once

#include "ddm/rank_md.hpp"
#include "md/cell_grid.hpp"
#include "md/integrator.hpp"
#include "md/lj.hpp"
#include "md/particle.hpp"
#include "md/thermostat.hpp"
#include "sim/comm.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pcmd::ddm {

struct SlabMdConfig {
  int pe_count = 4;  // ring size; must be >= 3 and <= layers
  int cells_per_axis = 0;  // 0: derive from cutoff
  double cutoff = 2.5;
  double dt = 0.005;
  std::optional<double> rescale_temperature;
  int rescale_interval = 50;
  // Dynamic boundary shifting (off = static slabs). A layer moves only
  // when the busy-time gap exceeds its own cost, so a shift never
  // overshoots.
  bool shift_enabled = false;
};

// A rank's slab descriptor, exchanged with both ring neighbours every step
// (its bytes are the kSlabInfo message payload).
struct SlabInfo {
  double busy = 0.0;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  double low_layer_load = 0.0;   // load of the layer at `lo`
  double high_layer_load = 0.0;  // load of the layer at `hi - 1`
  double total_load = 0.0;
};

struct SlabStepStats {
  std::int64_t step = 0;
  double t_step = 0.0;
  double force_max = 0.0;
  double force_avg = 0.0;
  double force_min = 0.0;
  double potential_energy = 0.0;
  double kinetic_energy = 0.0;
  std::int64_t total_particles = 0;
  int shifts = 0;  // layers moved this step
};

class SlabMd {
 public:
  // Bins `initial` (inside the primary image of `box`) into an even split
  // of the layers over `config.pe_count` ranks of `engine`, then runs the
  // first halo exchange and force phase so step() starts with f(t).
  // std::invalid_argument on a ring under 3 ranks, an engine of another
  // size, more ranks than layers or a cell edge below the cut-off.
  SlabMd(sim::Engine& engine, const Box& box,
         const md::ParticleVector& initial, const SlabMdConfig& config);

  SlabStepStats step();
  SlabStepStats run(std::int64_t steps);

  // ---- validation / diagnostics (outside the SPMD model) ----
  md::ParticleVector gather_particles() const;
  // Layers owned by a rank according to its own view.
  std::pair<int, int> slab_range(int rank) const;  // [lo, hi)
  // Checks the slab partition: contiguous, covering, >= 1 layer each, and
  // neighbouring views agree on the shared boundary.
  bool check_partition(std::string* error = nullptr) const;

 private:
  struct Rank : RankMd {
    // The rank's view of the boundary positions it participates in:
    // lo = first owned layer, hi = one past the last.
    int lo = 0;
    int hi = 0;
    int shifts_made = 0;
    // Phase A's descriptor, which phase B's shift decision reads again.
    SlabInfo info;
  };

  int left(int rank) const;   // ring neighbour at lower x
  int right(int rank) const;  // ring neighbour at higher x
  int layer_of_position(const Vec3& position) const;
  // Fills `cells` (caller-owned scratch, capacity reused) with the sorted
  // flat indices of all cells in layers [lo, hi).
  void cells_of_layers(int lo, int hi, std::vector<int>& cells) const;
  double layer_load(const Rank& rank, int layer) const;
  // Halo exchange shared by construction and phases C/D: send_halo packs
  // the rank's edge layers to both ring neighbours; receive_halo rebuilds
  // rank.with_halo from the owned particles and the neighbours' records.
  void send_halo(sim::Comm& comm, Rank& rank, int tag);
  void receive_halo(sim::Comm& comm, Rank& rank, int tag);

  void phase_a_drift_and_times(sim::Comm& comm);
  void phase_b_shift_and_migrate(sim::Comm& comm);
  void phase_c_absorb_and_halo(sim::Comm& comm);
  void phase_d_forces(sim::Comm& comm);
  void phase_e_finish(sim::Comm& comm);

  sim::Engine* engine_;
  Box box_;
  SlabMdConfig config_;
  md::CellGrid grid_;
  md::LennardJones lj_;
  md::VelocityVerlet integrator_;
  std::optional<md::RescaleThermostat> thermostat_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::int64_t step_count_ = 0;
};

}  // namespace pcmd::ddm
