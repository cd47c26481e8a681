#include "md/lj.hpp"

#include <stdexcept>

namespace pcmd::md {

LennardJones::LennardJones(double cutoff)
    : cutoff_(cutoff), cutoff2_(cutoff * cutoff) {
  if (cutoff <= 0.0) {
    throw std::invalid_argument("LennardJones: cutoff must be positive");
  }
}

double LennardJones::potential_r2(double r2) const {
  if (r2 >= cutoff2_) return 0.0;
  const double inv_r2 = 1.0 / r2;
  const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
  return 4.0 * (inv_r6 * inv_r6 - inv_r6);
}

double LennardJones::force_over_r(double r2) const {
  if (r2 >= cutoff2_) return 0.0;
  const double inv_r2 = 1.0 / r2;
  const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
  // F(r)/r = 24 eps (2 (sigma/r)^12 - (sigma/r)^6) / r^2
  return 24.0 * (2.0 * inv_r6 * inv_r6 - inv_r6) * inv_r2;
}

}  // namespace pcmd::md
