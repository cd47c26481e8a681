// Truncated Lennard-Jones 12-6 potential (paper eq. (1)):
//   V(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ],  truncated at r_c.
// Reduced units: eps = sigma = 1. Plain truncation, as in the paper: the
// potential is not shifted, so it jumps by V(r_c) at the cut-off.
#pragma once

#include "util/hot.hpp"

namespace pcmd::md {

// Result of one fused pair evaluation (see LennardJones::pair_kernel).
struct PairKernelResult {
  double force_over_r = 0.0;
  double potential = 0.0;
};

class LennardJones {
 public:
  explicit LennardJones(double cutoff = 2.5);

  double cutoff() const { return cutoff_; }
  double cutoff2() const { return cutoff2_; }

  // Potential at squared distance r2 (0 beyond the cut-off).
  double potential_r2(double r2) const;

  // Force magnitude divided by r: F(r) / r, so the force vector on particle i
  // from j is  (x_i - x_j) * force_over_r(r2). Zero beyond the cut-off.
  double force_over_r(double r2) const;

  // Fused force + potential evaluation for r2 < cutoff2(). Shares one
  // reciprocal between the two quantities; the individual expressions are
  // the same as force_over_r() / potential_r2(), so the results are bitwise
  // identical to the separate calls. Callers must check the cut-off — this
  // kernel has no branch so the hot loop stays tight.
  PCMD_HOT PairKernelResult pair_kernel(double r2) const {
    const double inv_r2 = 1.0 / r2;
    const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
    PairKernelResult out;
    out.force_over_r = 24.0 * (2.0 * inv_r6 * inv_r6 - inv_r6) * inv_r2;
    out.potential = 4.0 * (inv_r6 * inv_r6 - inv_r6);
    return out;
  }

 private:
  double cutoff_;
  double cutoff2_;
};

}  // namespace pcmd::md
