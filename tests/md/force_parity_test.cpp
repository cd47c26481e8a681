// Bitwise-parity battery for the SoA force fast path.
//
// The determinism contract (DESIGN.md) requires the packed-SoA kernel the
// engines run to produce *bit-identical* results to the straight-line AoS
// reference: same per-pair arithmetic, same ascending-stencil iteration
// order, same same-id skip. Every comparison here is exact (EXPECT_EQ on
// doubles) — a tolerance would hide a reordering that breaks golden
// regressions and Seq/Thread parity.
#include "md/cell_grid.hpp"
#include "md/lj.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

namespace pcmd::md {
namespace {

ParticleVector random_particles(int n, const Box& box, std::uint64_t seed) {
  pcmd::Rng rng(seed);
  workload::GasConfig config;
  config.min_separation = 0.85;
  return workload::random_gas(n, box, config, rng);
}

std::vector<int> all_cells(const CellGrid& grid) {
  std::vector<int> cells(grid.num_cells());
  std::iota(cells.begin(), cells.end(), 0);
  return cells;
}

// Exact comparison of every targeted particle's force plus the sweep
// accumulators between the AoS reference and the SoA overload.
void expect_bitwise_parity(const CellGrid& grid, ParticleVector particles,
                           std::span<const int> targets,
                           const LennardJones& lj) {
  const CellBins bins(grid, particles);
  ParticleVector reference = particles;
  const auto expected =
      accumulate_forces(reference, grid, bins, targets, lj);
  ForceWorkspace workspace;
  const auto actual =
      accumulate_forces(particles, grid, bins, targets, lj, workspace);
  EXPECT_EQ(actual.potential_energy, expected.potential_energy);
  EXPECT_EQ(actual.virial, expected.virial);
  EXPECT_EQ(actual.pair_evaluations, expected.pair_evaluations);
  ASSERT_EQ(particles.size(), reference.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(particles[i].force.x, reference[i].force.x) << "particle " << i;
    EXPECT_EQ(particles[i].force.y, reference[i].force.y) << "particle " << i;
    EXPECT_EQ(particles[i].force.z, reference[i].force.z) << "particle " << i;
  }
}

TEST(ForceParity, SoaMatchesAosOnDenseGas) {
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  expect_bitwise_parity(grid, random_particles(400, box, 7), all_cells(grid),
                        LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosOnAnisotropicGrid) {
  // Non-cubic cell counts exercise the wrap arithmetic in the stencil and
  // the minimum-image folds along each axis independently.
  const Box box{Vec3{15.0, 10.0, 7.5}};
  const CellGrid grid(box, 6, 4, 3);
  expect_bitwise_parity(grid, random_particles(300, box, 11),
                        all_cells(grid), LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosOnTargetSubset) {
  // The engines sweep only their own cells; halo particles keep stale
  // forces. Target roughly half the cells and check untouched particles
  // stay untouched in both implementations.
  const Box box = Box::cubic(10.0);
  const CellGrid grid(box, 2.5);
  std::vector<int> targets;
  for (int c = 0; c < grid.num_cells(); c += 2) targets.push_back(c);
  expect_bitwise_parity(grid, random_particles(250, box, 13), targets,
                        LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosWithTinyCutoff) {
  // Cutoff well below the cell edge: most stencil pairs fail the r2 test,
  // exercising the cutoff branch ordering in both kernels.
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  expect_bitwise_parity(grid, random_particles(300, box, 17),
                        all_cells(grid), LennardJones(1.1));
}

TEST(ForceParity, WorkspaceReuseAcrossShrinkingLoads) {
  // A workspace that served a large system must serve a smaller one with no
  // stale-slot leakage: results still bitwise match a fresh workspace.
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  const LennardJones lj(2.5);
  auto big = random_particles(400, box, 19);
  auto small = random_particles(100, box, 23);
  const CellBins big_bins(grid, big);
  const CellBins small_bins(grid, small);
  ForceWorkspace reused;
  accumulate_forces(big, grid, big_bins, all_cells(grid), lj, reused);
  ParticleVector fresh_particles = small;
  ForceWorkspace fresh;
  const auto expected = accumulate_forces(fresh_particles, grid, small_bins,
                                          all_cells(grid), lj, fresh);
  const auto actual = accumulate_forces(small, grid, small_bins,
                                        all_cells(grid), lj, reused);
  EXPECT_EQ(actual.potential_energy, expected.potential_energy);
  EXPECT_EQ(actual.pair_evaluations, expected.pair_evaluations);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].force.x, fresh_particles[i].force.x);
    EXPECT_EQ(small[i].force.y, fresh_particles[i].force.y);
    EXPECT_EQ(small[i].force.z, fresh_particles[i].force.z);
  }
}

// ---------------------------------------------------------------------------
// Generated battery. Case k is kind k % kKinds and variant k / kKinds; it
// draws everything from its own seed. The kinds cover:
// - 1, 2 and 3-5 cells per axis (with 1 or 2 the stencil deduplicates) and
//   anisotropic boxes;
// - all particles in one cell (a gather buffer far larger than usual) and
//   sparse systems with many empty cells;
// - particles on cell faces and at 0;
// - a 1-cell-per-axis box whose cut-off exceeds L/2, with pairs exactly
//   +-L/2 apart (the minimum image's compare boundary);
// - 5-7 cells per axis with the particles in the first and last layers, so
//   that cell pairs' bounds decide every image shift: +0, +L and -L;
// - 3-4 cells per axis with pairs near L/2 apart, so that the bounds leave
//   axes undecided and the sweep folds per candidate;
// - 2-5 cells per axis with pairs exactly +-L/2 apart across two cells.
// The variant's residues pick the rest:
// - cut-offs from 0.4 of the smallest cell edge up to that edge;
// - ids in or against storage order;
// - one id present twice, close enough to share a stencil (the reference
//   skips and does not count every same-id entry);
// - unique ids spread wider than the sweep's uniqueness check accepts, so
//   that it compares ids per candidate;
// - all cells, a random subset, or a single cell as targets.
// Forces and sums are compared as bit patterns, so a NaN or a signed zero
// must match too.

constexpr int kKinds = 8;
constexpr int kBatteryCases = 40 * kKinds;

struct SweepCase {
  Box box;
  int nx = 1;
  int ny = 1;
  int nz = 1;
  double cutoff = 1.0;
  ParticleVector particles;
  std::vector<int> targets;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Particle particle_at(std::int64_t id, const Vec3& position) {
  Particle p;
  p.id = id;
  p.position = position;
  return p;
}

// Coordinate in [0, len) on a 1/8 grid, so +-len/2 shifts of it are exact.
double dyadic(Rng& rng, double len) {
  return static_cast<double>(rng.uniform_index(
             static_cast<std::uint64_t>(8.0 * len))) / 8.0;
}

// One axis of the minimum-image "half box" geometry: q sits exactly len/2
// from p, wrapped into [0, len).
double half_box_partner(double p, double len) {
  return p + 0.5 * len < len ? p + 0.5 * len : p - 0.5 * len;
}

// Coordinate in layer 0 or n - 1 of an axis of n cells of edge `edge`.
double outer_layer(Rng& rng, double edge, int n) {
  const double offset = rng.uniform(0.0, edge);
  return rng.uniform_index(2) == 0 ? offset : (n - 1) * edge + offset;
}

SweepCase draw_case(int k) {
  Rng rng(0xF0CE5EEDull + static_cast<std::uint64_t>(k));
  SweepCase sc;
  // 0-1 random/sparse, 2 one cell, 3 faces, 4 half box, 5 outer layers,
  // 6 near half box, 7 half box across cells.
  const int kind = k % kKinds;
  const int variant = k / kKinds;
  auto dim = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  Vec3 edge;
  if (kind == 4) {
    sc.nx = sc.ny = sc.nz = 1;
    const double len = 2.0 + static_cast<double>(rng.uniform_index(3));
    edge = Vec3{len, len, len};
    sc.cutoff = len * rng.uniform(0.55, 1.0);  // > L/2, <= the cell edge
  } else {
    const int lo = kind == 5 ? 5 : kind == 6 ? 3 : kind == 7 ? 2 : 1;
    const int hi = kind == 5 ? 7 : kind == 6 ? 4 : 5;
    sc.nx = dim(lo, hi);
    sc.ny = dim(lo, hi);
    sc.nz = dim(lo, hi);
    if (kind == 7) {
      // Edges on a 1/8 grid, so that L/2 shifts of dyadic points are exact.
      auto dyadic_edge = [&] { return 1.0 + 0.125 * rng.uniform_index(17); };
      edge = Vec3{dyadic_edge(), dyadic_edge(), dyadic_edge()};
    } else {
      edge = Vec3{rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0),
                  rng.uniform(1.0, 3.0)};
    }
  }
  sc.box = Box{Vec3{edge.x * sc.nx, edge.y * sc.ny, edge.z * sc.nz}};
  const Vec3 len = sc.box.length;
  if (kind != 4) {
    // The grid's own cell edges, len / n, which may round below `edge`.
    const double min_edge =
        std::min({len.x / sc.nx, len.y / sc.ny, len.z / sc.nz});
    sc.cutoff =
        variant % 7 == 0 ? min_edge : min_edge * rng.uniform(0.4, 1.0);
  }
  const int cells = sc.nx * sc.ny * sc.nz;

  auto& ps = sc.particles;
  std::int64_t next_id = 0;
  auto add_random = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      ps.push_back(particle_at(next_id++, rng.uniform_in_box(len)));
    }
  };
  switch (kind) {
    case 0:
    case 1: {
      // Kind 1 is sparse: at most one particle per two cells.
      const auto cap = static_cast<std::uint64_t>(
          kind == 0 ? std::min(6 * cells, 150) : cells / 2 + 1);
      add_random(rng.uniform_index(cap + 1));
      break;
    }
    case 2: {
      // Everything in one cell.
      const int cx = static_cast<int>(rng.uniform_index(sc.nx));
      const int cy = static_cast<int>(rng.uniform_index(sc.ny));
      const int cz = static_cast<int>(rng.uniform_index(sc.nz));
      const auto n = 20 + rng.uniform_index(101);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Vec3 offset = rng.uniform_in_box(edge);
        ps.push_back(particle_at(
            next_id++, Vec3{cx * edge.x + offset.x, cy * edge.y + offset.y,
                            cz * edge.z + offset.z}));
      }
      break;
    }
    case 3: {
      // Snap one or two axes of each particle onto a cell face (face 0 is
      // the box face at 0).
      const auto n = rng.uniform_index(static_cast<std::uint64_t>(
                         std::min(4 * cells, 120))) + 1;
      for (std::uint64_t i = 0; i < n; ++i) {
        Vec3 p = rng.uniform_in_box(len);
        auto face = [&](double e, int n) {
          return e * static_cast<double>(rng.uniform_index(n));
        };
        const auto snap = rng.uniform_index(6);
        if (snap & 1) p.x = face(edge.x, sc.nx);
        if (snap & 2) p.y = face(edge.y, sc.ny);
        if (snap == 0 || snap == 4) p.z = face(edge.z, sc.nz);
        ps.push_back(particle_at(next_id++, p));
      }
      break;
    }
    case 5: {
      // Every particle in the first or last layer of at least one axis, so
      // cell pairs across the periodic boundary interact.
      const auto n = 20 + rng.uniform_index(101);
      for (std::uint64_t i = 0; i < n; ++i) {
        Vec3 p = rng.uniform_in_box(len);
        const auto axes = 1 + rng.uniform_index(7);  // nonzero subset
        if (axes & 1) p.x = outer_layer(rng, edge.x, sc.nx);
        if (axes & 2) p.y = outer_layer(rng, edge.y, sc.ny);
        if (axes & 4) p.z = outer_layer(rng, edge.z, sc.nz);
        ps.push_back(particle_at(next_id++, wrap(p, sc.box)));
      }
      break;
    }
    case 6: {
      // Pairs a little more or less than L/2 apart along one, two or three
      // axes, among random particles.
      const auto pairs = 2 + rng.uniform_index(8);
      for (std::uint64_t i = 0; i < pairs; ++i) {
        const Vec3 p = rng.uniform_in_box(len);
        const auto axes = 1 + rng.uniform_index(7);
        auto near_half = [&](double x, double l, double e) {
          return wrap_coordinate(x + 0.5 * l + rng.uniform(-0.1, 0.1) * e, l);
        };
        const Vec3 q{axes & 1 ? near_half(p.x, len.x, edge.x) : p.x,
                     axes & 2 ? near_half(p.y, len.y, edge.y) : p.y,
                     axes & 4 ? near_half(p.z, len.z, edge.z) : p.z};
        ps.push_back(particle_at(next_id++, p));
        ps.push_back(particle_at(next_id++, q));
      }
      add_random(10 + rng.uniform_index(
                          static_cast<std::uint64_t>(std::min(3 * cells, 90))));
      break;
    }
    default: {
      // Kinds 4 and 7: pairs exactly L/2 apart along one, two or three
      // axes, plus a few random particles. With more than one cell per axis
      // the two lie in different cells.
      const auto pairs = 1 + rng.uniform_index(4);
      for (std::uint64_t i = 0; i < pairs; ++i) {
        const Vec3 p{dyadic(rng, len.x), dyadic(rng, len.y),
                     dyadic(rng, len.z)};
        const auto axes = 1 + rng.uniform_index(7);  // nonzero subset
        const Vec3 q{axes & 1 ? half_box_partner(p.x, len.x) : p.x,
                     axes & 2 ? half_box_partner(p.y, len.y) : p.y,
                     axes & 4 ? half_box_partner(p.z, len.z) : p.z};
        ps.push_back(particle_at(next_id++, p));
        ps.push_back(particle_at(next_id++, q));
      }
      add_random(rng.uniform_index(6));
      break;
    }
  }

  // Odd variants number the particles against their storage order, so the
  // id-sorted bins permute them.
  if (variant % 2 == 1) {
    for (auto& p : ps) p.id = next_id - 1 - p.id;
  }
  // Every third variant gives one id to two particles less than half a cell
  // apart, so each lies in the other's stencil.
  if (variant % 3 == 0 && ps.size() >= 2) {
    const auto i = rng.uniform_index(ps.size());
    auto j = rng.uniform_index(ps.size() - 1);
    if (j >= i) ++j;
    const Vec3 nudge{rng.uniform(-0.5, 0.5) * edge.x,
                     rng.uniform(-0.5, 0.5) * edge.y,
                     rng.uniform(-0.5, 0.5) * edge.z};
    ps[j].id = ps[i].id;
    ps[j].position = wrap(ps[i].position + nudge, sc.box);
  }
  // Every fifth variant spreads the ids 2^40 apart: still in order and
  // still unique (or duplicated) as before, but too wide for the sweep's
  // id bitmap.
  if (variant % 5 == 2) {
    for (auto& p : ps) p.id *= std::int64_t{1} << 40;
  }

  switch (variant % 4) {
    case 1:
      for (int c = 0; c < cells; ++c) {
        if (rng.uniform_index(2) == 0) sc.targets.push_back(c);
      }
      break;
    case 3:
      sc.targets.push_back(static_cast<int>(rng.uniform_index(cells)));
      break;
    default:
      sc.targets.resize(static_cast<std::size_t>(cells));
      std::iota(sc.targets.begin(), sc.targets.end(), 0);
      break;
  }
  return sc;
}

class ForceParityBattery : public ::testing::TestWithParam<int> {};

TEST_P(ForceParityBattery, SoaMatchesAosBitwise) {
  SweepCase sc = draw_case(GetParam());
  const CellGrid grid(sc.box, sc.nx, sc.ny, sc.nz);
  ASSERT_TRUE(grid.covers_cutoff(sc.cutoff));
  const LennardJones lj(sc.cutoff);
  const CellBins bins(grid, sc.particles);
  ParticleVector reference = sc.particles;
  const ForceResult expected =
      accumulate_forces(reference, grid, bins, sc.targets, lj);
  ForceWorkspace workspace;
  const ForceResult actual = accumulate_forces(sc.particles, grid, bins,
                                               sc.targets, lj, workspace);
  EXPECT_EQ(bits(actual.potential_energy), bits(expected.potential_energy));
  EXPECT_EQ(bits(actual.virial), bits(expected.virial));
  EXPECT_EQ(actual.pair_evaluations, expected.pair_evaluations);
  for (std::size_t i = 0; i < sc.particles.size(); ++i) {
    EXPECT_EQ(bits(sc.particles[i].force.x), bits(reference[i].force.x))
        << "particle " << i;
    EXPECT_EQ(bits(sc.particles[i].force.y), bits(reference[i].force.y))
        << "particle " << i;
    EXPECT_EQ(bits(sc.particles[i].force.z), bits(reference[i].force.z))
        << "particle " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Generated, ForceParityBattery,
                         ::testing::Range(0, kBatteryCases));

TEST(StencilCache, SharedTableIsBitwiseIdenticalToPrivate) {
  const Box box = Box::cubic(11.0);
  const CellGrid shared(box, 5, 4, 3, StencilSource::kShared);
  const CellGrid priv(box, 5, 4, 3, StencilSource::kPrivate);
  const StencilTable& a = shared.stencil_table();
  const StencilTable& b = priv.stencil_table();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.storage, b.storage);
}

TEST(StencilCache, SameShapeSharesOneTableAcrossGrids) {
  // Two grids of the same (nx, ny, nz) — even over different boxes — must
  // reuse one cached table instead of rebuilding the O(27 C) structure.
  const CellGrid one(Box::cubic(10.0), 4, 4, 4);
  const CellGrid two(Box::cubic(25.0), 4, 4, 4);
  EXPECT_EQ(&one.stencil_table(), &two.stencil_table());
  const CellGrid other(Box::cubic(10.0), 4, 4, 5);
  EXPECT_NE(&one.stencil_table(), &other.stencil_table());
}

TEST(StencilCache, CacheSourceDoesNotChangeForces) {
  const Box box = Box::cubic(12.5);
  const LennardJones lj(2.5);
  auto particles = random_particles(300, box, 29);
  const CellGrid shared(box, 2.5, StencilSource::kShared);
  const CellGrid priv(box, 2.5, StencilSource::kPrivate);
  ASSERT_EQ(shared.num_cells(), priv.num_cells());
  const CellBins bins(shared, particles);
  ParticleVector with_private = particles;
  ForceWorkspace wa, wb;
  const auto a = accumulate_forces(particles, shared, bins,
                                   all_cells(shared), lj, wa);
  const auto b = accumulate_forces(with_private, priv, bins,
                                   all_cells(priv), lj, wb);
  EXPECT_EQ(a.potential_energy, b.potential_energy);
  EXPECT_EQ(a.pair_evaluations, b.pair_evaluations);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(particles[i].force.x, with_private[i].force.x);
    EXPECT_EQ(particles[i].force.y, with_private[i].force.y);
    EXPECT_EQ(particles[i].force.z, with_private[i].force.z);
  }
}

}  // namespace
}  // namespace pcmd::md
