#include "md/cell_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

namespace pcmd::md {

namespace {
int wrap_index(int v, int dim) {
  int w = v % dim;
  if (w < 0) w += dim;
  return w;
}

int dims_from_edge(double length, double min_edge) {
  if (min_edge <= 0.0) {
    throw std::invalid_argument("CellGrid: min_cell_edge must be positive");
  }
  // A tiny epsilon keeps L = k * r_c from producing k-1 cells through
  // floating-point noise.
  const int n = static_cast<int>(std::floor(length / min_edge + 1e-9));
  return std::max(n, 1);
}

std::shared_ptr<const StencilTable> build_stencil_table(int nx, int ny,
                                                        int nz) {
  auto table = std::make_shared<StencilTable>();
  const int cells = nx * ny * nz;
  table->storage.assign(static_cast<std::size_t>(cells) * table->width, -1);
  table->sizes.assign(cells, 0);
  std::vector<int> scratch;
  scratch.reserve(27);
  for (int flat = 0; flat < cells; ++flat) {
    const int cx = flat % nx;
    const int cy = (flat / nx) % ny;
    const int cz = flat / (nx * ny);
    scratch.clear();
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int wx = wrap_index(cx + dx, nx);
          const int wy = wrap_index(cy + dy, ny);
          const int wz = wrap_index(cz + dz, nz);
          scratch.push_back((wz * ny + wy) * nx + wx);
        }
      }
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    table->sizes[flat] = static_cast<std::uint16_t>(scratch.size());
    std::copy(scratch.begin(), scratch.end(),
              table->storage.begin() +
                  static_cast<std::size_t>(flat) * table->width);
  }
  return table;
}

// Process-wide stencil cache. The table is a pure function of the grid
// shape, so every CellGrid of the same (nx, ny, nz) shares one instance;
// entries live for the process (the set of distinct shapes is tiny). The
// mutex is only touched at grid construction, never during traversal.
std::shared_ptr<const StencilTable> acquire_stencils(int nx, int ny, int nz,
                                                     StencilSource source) {
  if (source == StencilSource::kPrivate) {
    return build_stencil_table(nx, ny, nz);
  }
  static std::mutex cache_mutex;
  static std::map<std::tuple<int, int, int>,
                  std::shared_ptr<const StencilTable>>
      cache;
  const std::scoped_lock lock(cache_mutex);
  auto& slot = cache[{nx, ny, nz}];
  if (!slot) slot = build_stencil_table(nx, ny, nz);
  return slot;
}
}  // namespace

CellGrid::CellGrid(const Box& box, double min_cell_edge, StencilSource source)
    : CellGrid(box, dims_from_edge(box.length.x, min_cell_edge),
               dims_from_edge(box.length.y, min_cell_edge),
               dims_from_edge(box.length.z, min_cell_edge), source) {}

CellGrid::CellGrid(const Box& box, int nx, int ny, int nz, StencilSource source)
    : box_(box), nx_(nx), ny_(ny), nz_(nz) {
  if (nx < 1 || ny < 1 || nz < 1) {
    throw std::invalid_argument("CellGrid: dimensions must be positive");
  }
  if (box.length.x <= 0.0 || box.length.y <= 0.0 || box.length.z <= 0.0) {
    throw std::invalid_argument("CellGrid: box lengths must be positive");
  }
  stencils_ = acquire_stencils(nx_, ny_, nz_, source);
}

Vec3 CellGrid::cell_edge() const {
  return {box_.length.x / nx_, box_.length.y / ny_, box_.length.z / nz_};
}

bool CellGrid::covers_cutoff(double cutoff) const {
  const Vec3 e = cell_edge();
  // With fewer than 3 cells per axis the deduplicated stencil still spans the
  // whole axis, so the coverage condition reduces to the edge length check.
  return e.x >= cutoff && e.y >= cutoff && e.z >= cutoff;
}

int CellGrid::flat_index(CellCoord c) const {
  c = wrap(c);
  return (c.z * ny_ + c.y) * nx_ + c.x;
}

CellCoord CellGrid::coord_of(int flat) const {
  if (flat < 0 || flat >= num_cells()) {
    throw std::out_of_range("CellGrid: flat index out of range");
  }
  return {flat % nx_, (flat / nx_) % ny_, flat / (nx_ * ny_)};
}

CellCoord CellGrid::wrap(CellCoord c) const {
  return {wrap_index(c.x, nx_), wrap_index(c.y, ny_), wrap_index(c.z, nz_)};
}

int CellGrid::cell_of_position(const Vec3& p) const {
  const Vec3 e = cell_edge();
  int cx = static_cast<int>(p.x / e.x);
  int cy = static_cast<int>(p.y / e.y);
  int cz = static_cast<int>(p.z / e.z);
  // Positions exactly at the upper box face (or nudged there by rounding)
  // belong to the last cell.
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
  cz = std::clamp(cz, 0, nz_ - 1);
  return (cz * ny_ + cy) * nx_ + cx;
}

std::span<const int> CellGrid::stencil(int flat) const {
  if (flat < 0 || flat >= num_cells()) {
    throw std::out_of_range("CellGrid: flat index out of range");
  }
  return {stencils_->storage.data() +
              static_cast<std::size_t>(flat) * stencils_->width,
          stencils_->sizes[flat]};
}

CellBins::CellBins(const CellGrid& grid, const ParticleVector& particles) {
  rebuild(grid, particles);
}

PCMD_HOT void CellBins::rebuild(const CellGrid& grid,
                                const ParticleVector& particles) {
  const int cells = grid.num_cells();
  scratch_counts_.assign(cells, 0);
  scratch_home_.resize(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const int c = grid.cell_of_position(particles[i].position);
    scratch_home_[i] = c;
    ++scratch_counts_[c];
  }
  offsets_.assign(cells + 1, 0);
  for (int c = 0; c < cells; ++c) {
    offsets_[c + 1] = offsets_[c] + scratch_counts_[c];
  }
  entries_.assign(particles.size(), 0);
  scratch_cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    entries_[scratch_cursor_[scratch_home_[i]]++] = static_cast<std::int32_t>(i);
  }
  // Sort each bin by particle id for permutation-independent iteration.
  for (int c = 0; c < cells; ++c) {
    std::sort(entries_.begin() + offsets_[c], entries_.begin() + offsets_[c + 1],
              [&particles](std::int32_t a, std::int32_t b) {
                return particles[a].id < particles[b].id;
              });
  }
}

std::span<const std::int32_t> CellBins::cell(int flat) const {
  return {entries_.data() + offsets_[flat],
          static_cast<std::size_t>(offsets_[flat + 1] - offsets_[flat])};
}

int CellBins::empty_cells() const {
  int empty = 0;
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
    if (offsets_[c + 1] == offsets_[c]) ++empty;
  }
  return empty;
}

ForceResult accumulate_forces(ParticleVector& particles, const CellGrid& grid,
                              const CellBins& bins,
                              std::span<const int> target_cells,
                              const LennardJones& lj) {
  ForceResult result;
  const Box& box = grid.box();
  for (const int c : target_cells) {
    for (const std::int32_t pi : bins.cell(c)) {
      Particle& p = particles[pi];
      Vec3 force{};
      double pe = 0.0;
      double virial = 0.0;
      for (const int nc : grid.stencil(c)) {
        for (const std::int32_t qi : bins.cell(nc)) {
          const Particle& q = particles[qi];
          if (q.id == p.id) continue;
          const Vec3 d = minimum_image(p.position, q.position, box);
          const double r2 = norm2(d);
          ++result.pair_evaluations;
          if (r2 < lj.cutoff2()) {
            const double fov = lj.force_over_r(r2);
            force += d * fov;
            pe += 0.5 * lj.potential_r2(r2);
            // Pair virial r . F, half per targeted endpoint (each pair is
            // visited from both sides in this no-Newton's-third-law sweep).
            virial += 0.5 * fov * r2;
          }
        }
      }
      p.force = force;
      result.potential_energy += pe;
      result.virial += virial;
    }
  }
  return result;
}

PCMD_HOT void ForceWorkspace::load(const ParticleVector& particles,
                                   const CellBins& bins) {
  const std::span<const std::int32_t> entries = bins.entries();
  const std::size_t n = entries.size();
  x_.resize(n);
  y_.resize(n);
  z_.resize(n);
  id_.resize(n);
  index_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const Particle& p = particles[entries[s]];
    x_[s] = p.position.x;
    y_[s] = p.position.y;
    z_[s] = p.position.z;
    id_[s] = p.id;
    index_[s] = entries[s];
  }
}

namespace {

// Smallest and largest position of a cell's particles, per axis.
struct CellBounds {
  Vec3 lo;
  Vec3 hi;
};

// One target cell's stencil candidates, gathered in stencil order, and the
// passes' outputs over them, plus the sweep-wide cell bounds and id bitmap.
// Only a sweep in progress reads it, so one copy per thread serves every
// workspace the thread sweeps: the memory follows an engine's runner
// threads (at most the host's cores), not its 16-36 ranks. Sized once per
// sweep; a thread in steady state never allocates it again.
struct SweepScratch {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  std::vector<double> sx;          // image shift per candidate, per axis
  std::vector<double> sy;
  std::vector<double> sz;
  std::vector<std::int64_t> id;
  std::vector<double> r2;          // distance pass: r^2 per candidate
  std::vector<std::int32_t> kept;  // in-cut-off, other-id candidates
  std::vector<CellBounds> bounds;  // per cell, valid for non-empty cells
  std::vector<std::uint64_t> seen;  // id bitmap of ids_unique()
};
thread_local SweepScratch sweep_scratch;

// Minimum image of one displacement component as two selects: the same two
// comparisons as min_image_component and the same single +-len, so the
// result is bitwise equal. The shift is len, -len or +0 (len + 0, 0 + -len,
// 0 + 0), and e - len, e - (-len) == e + len and e - (+0) == e are exact
// IEEE identities, also for e = -0. Branch-free, so loops over it vectorise;
// the sum of two masked constants costs fewer vector ops than a difference.
inline double fold(double e, double len, double half) {
  return e - ((e > half ? len : 0.0) + (e < -half ? -len : 0.0));
}

// The shift fold() subtracts on each axis from every e = fl(p - q) with p in
// cell bounds `p` and q in cell bounds `q`, if the bounds decide it.
// Correctly rounded subtraction is monotone, so every such e lies in
// [fl(lo_p - hi_q), fl(hi_p - lo_q)]; an interval on one side of both of
// fold's compares fixes both outcomes for every pair, and the shift is the
// value fold() adds up for each of them (len, -len or +0). Returns false
// when an axis's interval straddles +-half (or is NaN), i.e. when pairs of
// this cell pair may fold differently.
inline bool image_shift(const CellBounds& p, const CellBounds& q,
                        const Vec3& len, const Vec3& half, Vec3& shift) {
  for (int a = 0; a < 3; ++a) {
    const double emin = p.lo[a] - q.hi[a];
    const double emax = p.hi[a] - q.lo[a];
    if (emax <= half[a] && emin >= -half[a]) {
      shift[a] = 0.0;
    } else if (emin > half[a]) {
      shift[a] = len[a];
    } else if (emax < -half[a]) {
      shift[a] = -len[a];
    } else {
      return false;
    }
  }
  return true;
}

// Bounds of every non-empty cell's slots; an empty cell's entry is left
// stale, since no candidate reads it. std::min/std::max keep the running
// bound when the new value is NaN, and a NaN coordinate stays NaN through
// either distance form, so it is never kept whatever its cell's bounds say.
PCMD_HOT void cell_bounds(const double* xs, const double* ys,
                          const double* zs,
                          std::span<const std::int32_t> offsets,
                          std::vector<CellBounds>& bounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bounds.resize(offsets.size() - 1);
  for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
    if (offsets[c] == offsets[c + 1]) continue;
    CellBounds b{Vec3{kInf, kInf, kInf}, Vec3{-kInf, -kInf, -kInf}};
    for (std::int32_t s = offsets[c]; s < offsets[c + 1]; ++s) {
      b.lo = Vec3{std::min(b.lo.x, xs[s]), std::min(b.lo.y, ys[s]),
                  std::min(b.lo.z, zs[s])};
      b.hi = Vec3{std::max(b.hi.x, xs[s]), std::max(b.hi.y, ys[s]),
                  std::max(b.hi.z, zs[s])};
    }
    bounds[c] = b;
  }
}

// True when no id occurs twice among the n slots, decided with a bitmap over
// [min id, max id]. Declines (returns false, so the sweep compares ids) when
// that range is wider than 64 n, where the bitmap would outgrow the slots.
PCMD_HOT bool ids_unique(const std::int64_t* ids, std::size_t n,
                         std::vector<std::uint64_t>& seen) {
  if (n == 0) return true;
  const auto [lo, hi] = std::minmax_element(ids, ids + n);
  // Unsigned arithmetic: the span of two int64 values fits in a uint64.
  const auto base = static_cast<std::uint64_t>(*lo);
  const std::uint64_t span = static_cast<std::uint64_t>(*hi) - base;
  if (span / 64 >= n) return false;
  seen.assign(static_cast<std::size_t>(span / 64) + 1, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint64_t bit = static_cast<std::uint64_t>(ids[s]) - base;
    std::uint64_t& word = seen[static_cast<std::size_t>(bit / 64)];
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if ((word & mask) != 0) return false;
    word |= mask;
  }
  return true;
}

// Pass 2 of the SoA sweep: r^2 from (px, py, pz) to each of the m gathered
// candidates, summed left to right like the reference. With restrict
// pointers GCC if-converts the selects and vectorises the loop at the
// baseline ISA. The ctest md.vectorised_loops (src/md/CMakeLists.txt) fails
// if a loop tagged "// vectorised" here stops being vectorised.
PCMD_HOT void distance_pass(double px, double py, double pz,
                            const double* __restrict xs,
                            const double* __restrict ys,
                            const double* __restrict zs, std::size_t m,
                            const Vec3& len, const Vec3& half,
                            double* __restrict r2) {
  for (std::size_t j = 0; j < m; ++j) {  // vectorised
    const double dx = fold(px - xs[j], len.x, half.x);
    const double dy = fold(py - ys[j], len.y, half.y);
    const double dz = fold(pz - zs[j], len.z, half.z);
    r2[j] = dx * dx + dy * dy + dz * dz;
  }
}

// Pass 2 where the cell bounds decided every candidate's image: the shift
// image_shift() gathered per candidate replaces the fold, so each component
// is fold(p - q) bit for bit with no compare.
PCMD_HOT void shifted_distance_pass(
    double px, double py, double pz, const double* __restrict xs,
    const double* __restrict ys, const double* __restrict zs,
    const double* __restrict sxs, const double* __restrict sys,
    const double* __restrict szs, std::size_t m, double* __restrict r2) {
  for (std::size_t j = 0; j < m; ++j) {  // vectorised
    const double dx = (px - xs[j]) - sxs[j];
    const double dy = (py - ys[j]) - sys[j];
    const double dz = (pz - zs[j]) - szs[j];
    r2[j] = dx * dx + dy * dy + dz * dz;
  }
}

}  // namespace

// SoA fast path. Same pairs, same order and the same per-pair arithmetic as
// the reference above (sorted stencil, id-sorted bins, same-id skip, minimum
// image per component, left-associated r2, the fused LJ kernel), so every
// running sum rounds identically and the scattered forces are bitwise equal.
// Once per sweep it records each cell's position bounds and decides whether
// the ids are unique. Per non-empty target cell:
//   1. gather the stencil's slots into contiguous candidate arrays, in
//      stencil order (the reference's j order), each with the image shift
//      its cell pair's bounds decide on every axis;
//   2. per particle, the branch-free distance pass over all m candidates:
//      (p - q) - shift if every shift was decided, else the fold;
//   3. keep, in order, the candidates with r2 < rc2 and a different id, and
//      run the kernel and the five running sums over those only. With
//      unique ids the particle's own slot is its one same-id entry, so its
//      r2 is set to +inf instead of comparing ids per candidate.
// pair_evaluations gains m minus the same-id entries, exactly the
// reference's count after its same-id skip.
PCMD_HOT ForceResult accumulate_forces(ParticleVector& particles,
                                       const CellGrid& grid,
                                       const CellBins& bins,
                                       std::span<const int> target_cells,
                                       const LennardJones& lj,
                                       ForceWorkspace& workspace) {
  workspace.load(particles, bins);
  ForceResult result;
  const Vec3 len = grid.box().length;
  const Vec3 half{0.5 * len.x, 0.5 * len.y, 0.5 * len.z};
  const double cutoff2 = lj.cutoff2();
  const std::span<const std::int32_t> offsets = bins.offsets();

  std::size_t widest = 0;
  for (const int c : target_cells) {
    std::size_t m = 0;
    for (const int nc : grid.stencil(c)) {
      m += static_cast<std::size_t>(offsets[nc + 1] - offsets[nc]);
    }
    widest = std::max(widest, m);
  }
  SweepScratch& scratch = sweep_scratch;
  scratch.x.resize(widest);
  scratch.y.resize(widest);
  scratch.z.resize(widest);
  scratch.sx.resize(widest);
  scratch.sy.resize(widest);
  scratch.sz.resize(widest);
  scratch.id.resize(widest);
  scratch.r2.resize(widest);
  scratch.kept.resize(widest);

  const double* const xs = workspace.x_.data();
  const double* const ys = workspace.y_.data();
  const double* const zs = workspace.z_.data();
  const std::int64_t* const ids = workspace.id_.data();
  cell_bounds(xs, ys, zs, offsets, scratch.bounds);
  const bool unique = ids_unique(ids, workspace.size(), scratch.seen);
  const CellBounds* const bounds = scratch.bounds.data();
  double* const cx = scratch.x.data();
  double* const cy = scratch.y.data();
  double* const cz = scratch.z.data();
  double* const csx = scratch.sx.data();
  double* const csy = scratch.sy.data();
  double* const csz = scratch.sz.data();
  std::int64_t* const cid = scratch.id.data();
  double* const r2s = scratch.r2.data();
  std::int32_t* const kept = scratch.kept.data();
  for (const int c : target_cells) {
    const std::int32_t first = offsets[c];
    const std::int32_t last = offsets[c + 1];
    if (first == last) continue;
    std::size_t m = 0;
    std::size_t self = 0;  // candidate index of the cell's first slot
    bool decided = true;
    for (const int nc : grid.stencil(c)) {
      if (offsets[nc] == offsets[nc + 1]) continue;
      if (nc == c) self = m;
      Vec3 shift;
      decided = decided && image_shift(bounds[c], bounds[nc], len, half, shift);
      for (std::int32_t q = offsets[nc]; q < offsets[nc + 1]; ++q, ++m) {
        cx[m] = xs[q];
        cy[m] = ys[q];
        cz[m] = zs[q];
        csx[m] = shift.x;
        csy[m] = shift.y;
        csz[m] = shift.z;
        cid[m] = ids[q];
      }
    }
    for (std::int32_t si = first; si < last; ++si) {
      const double px = xs[si];
      const double py = ys[si];
      const double pz = zs[si];
      if (decided) {
        shifted_distance_pass(px, py, pz, cx, cy, cz, csx, csy, csz, m, r2s);
      } else {
        distance_pass(px, py, pz, cx, cy, cz, m, len, half, r2s);
      }
      std::size_t n_kept = 0;
      std::size_t same = 0;
      if (unique) {
        r2s[self + static_cast<std::size_t>(si - first)] =
            std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < m; ++j) {
          kept[n_kept] = static_cast<std::int32_t>(j);
          n_kept += static_cast<std::size_t>(r2s[j] < cutoff2);
        }
        same = 1;
      } else {
        const std::int64_t pid = ids[si];
        for (std::size_t j = 0; j < m; ++j) {
          const bool is_self = cid[j] == pid;
          kept[n_kept] = static_cast<std::int32_t>(j);
          n_kept += static_cast<std::size_t>((r2s[j] < cutoff2) & !is_self);
          same += static_cast<std::size_t>(is_self);
        }
      }
      double fx = 0.0;
      double fy = 0.0;
      double fz = 0.0;
      double pe = 0.0;
      double virial = 0.0;
      for (std::size_t k = 0; k < n_kept; ++k) {
        const std::int32_t j = kept[k];
        const double ex = px - cx[j];
        const double ey = py - cy[j];
        const double ez = pz - cz[j];
        const double dx = decided ? ex - csx[j] : fold(ex, len.x, half.x);
        const double dy = decided ? ey - csy[j] : fold(ey, len.y, half.y);
        const double dz = decided ? ez - csz[j] : fold(ez, len.z, half.z);
        const double r2 = r2s[j];
        const PairKernelResult kr = lj.pair_kernel(r2);
        fx += dx * kr.force_over_r;
        fy += dy * kr.force_over_r;
        fz += dz * kr.force_over_r;
        pe += 0.5 * kr.potential;
        virial += 0.5 * kr.force_over_r * r2;
      }
      particles[workspace.index_[si]].force = Vec3{fx, fy, fz};
      result.potential_energy += pe;
      result.virial += virial;
      result.pair_evaluations += m - same;
    }
  }
  return result;
}

ForceResult accumulate_forces_naive(ParticleVector& particles, const Box& box,
                                    const LennardJones& lj) {
  ForceResult result;
  for (auto& p : particles) p.force = Vec3{};
  for (std::size_t i = 0; i < particles.size(); ++i) {
    for (std::size_t j = i + 1; j < particles.size(); ++j) {
      const Vec3 d =
          minimum_image(particles[i].position, particles[j].position, box);
      const double r2 = norm2(d);
      ++result.pair_evaluations;
      if (r2 < lj.cutoff2()) {
        const double fov = lj.force_over_r(r2);
        const Vec3 f = d * fov;
        particles[i].force += f;
        particles[j].force -= f;
        result.potential_energy += lj.potential_r2(r2);
        result.virial += fov * r2;
      }
    }
  }
  return result;
}

}  // namespace pcmd::md
