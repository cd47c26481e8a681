// Effective-range experiments (paper Section 4.2, Fig. 10 and Table 1):
// sweep densities, run concentrating workloads under DLB, detect the
// boundary step where Fmax - Fmin begins to grow, read off the boundary
// point (n, C0/C), fit the experimental boundary, and compare against the
// theoretical upper bound f(m, n).
#pragma once

#include "core/dlb_protocol.hpp"
#include "theory/boundary.hpp"
#include "theory/concentration.hpp"
#include "theory/synthetic_balance.hpp"
#include "util/least_squares.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace pcmd::theory {

struct BoundaryPoint {
  bool found = false;
  std::int64_t step = -1;
  double n = 1.0;
  double c0_ratio = 0.0;
  // E/T: the boundary's C0/C relative to the theoretical bound f(m, n).
  double ratio_to_theory = 0.0;
};

// Extracts the boundary point from a run's series: detects the boundary
// step and averages the concentration samples in a small window around it.
BoundaryPoint extract_boundary_point(std::span<const double> f_max,
                                     std::span<const double> f_min,
                                     std::span<const double> f_avg,
                                     const Trajectory& trajectory, int m,
                                     const BoundaryConfig& config = {});

// ---- synthetic sweep (fast path for Fig. 10 / Table 1) -------------------

struct EffectiveRangeConfig {
  int pe_side = 6;
  int m = 2;
  double cutoff = 2.5;
  int steps = 600;
  int reps = 3;  // independent seeds per density
  // Densities (rho*) to sweep; each sets the synthetic particle count to
  // round(rho * volume). The paper uses 0.128 / 0.256 / 0.384 / 0.512.
  std::vector<double> densities = {0.128, 0.256, 0.384, 0.512};
  core::DlbConfig dlb = [] {
    core::DlbConfig d;
    // The synthetic simulator's times are smooth and deterministic, which
    // can park the strict protocol on an unhelpable PE_fast forever (see
    // DlbConfig::fallback_to_helpable); real MD time noise unsticks it.
    // The sweeps therefore default to fallback mode.
    d.fallback_to_helpable = true;
    return d;
  }();
  BoundaryConfig boundary;
  std::uint64_t base_seed = 1000;
};

struct DensityResult {
  double density = 0.0;
  std::vector<BoundaryPoint> points;  // one per rep (found only)
  BoundaryPoint mean;                 // averaged over found reps
  double n_stddev = 0.0;
  double c0_stddev = 0.0;
};

struct EffectiveRangeResult {
  int pe_side = 0;
  int m = 0;
  std::vector<DensityResult> densities;
  // Least-squares experimental boundary through the mean points, in the
  // reciprocal form 1/(C0/C) = a n + b matching the bound's shape.
  std::optional<ReciprocalFit> experimental_boundary;
  // Mean E/T over all found points (paper Table 1 entries).
  double mean_ratio_to_theory = 0.0;
};

EffectiveRangeResult synthetic_effective_range(const EffectiveRangeConfig&);

}  // namespace pcmd::theory
