// Cubic cell grid over the periodic simulation box (paper Section 2.2).
//
// The box is divided into nx x ny x nz cells whose edge is >= the cut-off
// distance, so all interactions of a particle lie within its own cell and
// the 26 neighbouring cells. Stencils are precomputed as *sorted, unique*
// flat cell indices: the fixed ascending order makes force accumulation
// bitwise deterministic and identical between the serial engine and any
// domain decomposition.
#pragma once

#include "md/lj.hpp"
#include "md/particle.hpp"
#include "util/hot.hpp"
#include "util/pbc.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace pcmd::md {

struct CellCoord {
  int x = 0;
  int y = 0;
  int z = 0;
  friend constexpr bool operator==(const CellCoord&, const CellCoord&) = default;
};

// Immutable stencil table for one grid shape: for every cell the sorted,
// unique flat indices of the cell itself and its up-to-26 neighbours. The
// table is a pure function of (nx, ny, nz), so grids of the same shape share
// one instance through a process-wide cache instead of rebuilding the
// O(27 C) table on every CellGrid construction.
struct StencilTable {
  std::vector<int> storage;             // num_cells * width entries
  std::vector<std::uint16_t> sizes;     // per-cell stencil size
  int width = 27;
};

// Where a CellGrid gets its stencil table from.
enum class StencilSource {
  kShared,   // reuse the process-wide cache keyed by (nx, ny, nz)
  kPrivate,  // build a private copy (validation of the cache itself)
};

class CellGrid {
 public:
  // Divides the box into floor(L / min_cell_edge) cells per axis (at least
  // one); actual cell edges are then >= min_cell_edge, matching the paper's
  // "equal to r_c, or a little larger".
  CellGrid(const Box& box, double min_cell_edge,
           StencilSource source = StencilSource::kShared);

  // Explicit dimensions (cell edge = L / n per axis).
  CellGrid(const Box& box, int nx, int ny, int nz,
           StencilSource source = StencilSource::kShared);

  const Box& box() const { return box_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int num_cells() const { return nx_ * ny_ * nz_; }
  Vec3 cell_edge() const;

  // True when every cell edge is >= cutoff, i.e. the 27-cell stencil is
  // sufficient for that cut-off.
  bool covers_cutoff(double cutoff) const;

  int flat_index(CellCoord c) const;  // wraps first
  CellCoord coord_of(int flat) const;
  CellCoord wrap(CellCoord c) const;

  // Cell containing a position in the primary image.
  int cell_of_position(const Vec3& p) const;

  // Sorted unique stencil (self + up to 26 neighbours) of a cell.
  std::span<const int> stencil(int flat) const;

  // The (possibly shared) stencil table backing stencil(). Exposed so tests
  // can assert a cached table is bitwise identical to a privately built one.
  const StencilTable& stencil_table() const { return *stencils_; }

 private:
  Box box_;
  int nx_;
  int ny_;
  int nz_;
  std::shared_ptr<const StencilTable> stencils_;
};

// Per-cell particle index bins, each bin sorted by particle id so iteration
// order is stable no matter how the particle vector is permuted.
class CellBins {
 public:
  CellBins() = default;
  CellBins(const CellGrid& grid, const ParticleVector& particles);

  // Rebuilds from scratch (the paper recomputes cell membership every step).
  void rebuild(const CellGrid& grid, const ParticleVector& particles);

  std::span<const std::int32_t> cell(int flat) const;
  std::size_t total() const { return entries_.size(); }

  // CSR views over all bins: entries() holds the particle indices grouped by
  // cell (each bin sorted by particle id), offsets() the per-cell ranges.
  // The force workspace packs its SoA arrays in exactly this order.
  std::span<const std::int32_t> entries() const { return entries_; }
  std::span<const std::int32_t> offsets() const { return offsets_; }

  // Number of cells that contain no particle — the C0 quantity of Section 4.
  int empty_cells() const;
  int num_cells() const { return static_cast<int>(offsets_.size()) - 1; }

 private:
  std::vector<std::int32_t> entries_;   // particle indices grouped by cell
  std::vector<std::int32_t> offsets_;   // size num_cells + 1
  // Rebuild scratch, kept across calls so the per-step rebuild allocates
  // nothing once capacities have grown to the working-set size.
  std::vector<std::int32_t> scratch_counts_;
  std::vector<std::int32_t> scratch_home_;
  std::vector<std::int32_t> scratch_cursor_;
};

// Result of a force sweep.
struct ForceResult {
  double potential_energy = 0.0;       // sum of half-contributions
  double virial = 0.0;                 // sum of r . F half-contributions
  std::uint64_t pair_evaluations = 0;  // distance computations performed
};

// Packed SoA working set for the force kernel: positions and ids of every
// binned particle, laid out in CellBins CSR order so the inner pair loop
// streams through contiguous arrays instead of striding across 80-byte
// Particle records. load() reuses capacity across steps — a workspace that
// has reached its steady-state size never allocates again.
class ForceWorkspace {
 public:
  // Gathers positions/ids from the canonical AoS particles into SoA arrays,
  // one slot per CellBins entry (same order).
  PCMD_HOT void load(const ParticleVector& particles, const CellBins& bins);

  std::size_t size() const { return index_.size(); }

 private:
  friend ForceResult accumulate_forces(ParticleVector& particles,
                                       const CellGrid& grid,
                                       const CellBins& bins,
                                       std::span<const int> target_cells,
                                       const LennardJones& lj,
                                       ForceWorkspace& workspace);

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> z_;
  std::vector<std::int64_t> id_;
  std::vector<std::int32_t> index_;  // slot -> index into the particle vector
};

// Computes forces for all particles that reside in `target_cells`, scanning
// each target cell's full stencil (the paper's method: every combination of
// molecules within each cell and its 26 neighbours; Newton's third law is
// NOT exploited across the stencil, matching the paper's program).
// Forces of targeted particles are overwritten; other particles (e.g. halo
// copies) are left untouched. Each interacting pair contributes half its
// potential energy per targeted endpoint.
//
// This is the straight-line AoS reference implementation; the engines run
// the SoA overload below, which is asserted bitwise identical to this one
// by the parity battery in tests/md.
ForceResult accumulate_forces(ParticleVector& particles, const CellGrid& grid,
                              const CellBins& bins,
                              std::span<const int> target_cells,
                              const LennardJones& lj);

// SoA fast path: packs the working set through `workspace`, then for each
// target cell gathers its stencil's candidates into one contiguous buffer
// and, per particle of the cell, runs a branch-free (vectorised) distance
// pass over all candidates, keeps the in-cut-off ones in order, and runs the
// fused LJ kernel on those only. The same pairs are summed in the same
// order with the same arithmetic, so forces, sums and pair_evaluations are
// bitwise identical to the reference overload.
ForceResult accumulate_forces(ParticleVector& particles, const CellGrid& grid,
                              const CellBins& bins,
                              std::span<const int> target_cells,
                              const LennardJones& lj,
                              ForceWorkspace& workspace);

// Reference O(N^2) force computation used to validate the cell path.
ForceResult accumulate_forces_naive(ParticleVector& particles, const Box& box,
                                    const LennardJones& lj);

}  // namespace pcmd::md
