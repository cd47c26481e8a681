// Occupancy-driven DLB simulator.
//
// The effective-range experiments (paper Fig. 10, Table 1) need hundreds of
// concentration sweeps over many (m, P, rho) points. Full MD pays for force
// evaluation the experiments do not actually need: the boundary of DLB's
// effective range is a property of *where the particles are*, not of their
// exact dynamics. This simulator scripts the particle distribution with the
// ConcentratingWorkload, models each PE's force-computation time from the
// cell occupancy (n_c * sum of stencil occupancies — the exact pair-check
// count of the paper's force loop), and runs the engine's own balancer
// (ddm::make_balancer) on top. The full-MD path (ParallelMd) validates the
// shortcut at small scale; see tests/run/trajectory_test.cpp and
// bench/fig10 --full.
#pragma once

#include "core/dlb_protocol.hpp"
#include "ddm/balancer.hpp"
#include "theory/concentration.hpp"
#include "workload/synthetic.hpp"

#include <cstdint>
#include <vector>

namespace pcmd::theory {

struct SyntheticBalanceConfig {
  int pe_side = 3;
  int m = 2;
  double cutoff = 2.5;
  int steps = 400;
  // Concentration schedule endpoints mapped linearly over the steps.
  double progress_begin = 0.0;
  double progress_end = 1.0;
  workload::SyntheticConfig workload;
  core::DlbConfig dlb;
  // The policy, as in ParallelMdConfig; kNone makes no decision at all.
  ddm::BalancerKind balancer = ddm::BalancerKind::kPermanent;
};

struct SyntheticStepRecord {
  int step = 0;
  double f_max = 0.0;  // modelled force work of the slowest PE (pair checks)
  double f_min = 0.0;
  double f_avg = 0.0;
  int transfers = 0;
  ConcentrationSample concentration;
};

struct SyntheticBalanceResult {
  std::vector<SyntheticStepRecord> records;

  std::vector<double> f_max_series() const;
  std::vector<double> f_min_series() const;
  std::vector<double> f_avg_series() const;
};

SyntheticBalanceResult run_synthetic_balance(const SyntheticBalanceConfig&);

}  // namespace pcmd::theory
