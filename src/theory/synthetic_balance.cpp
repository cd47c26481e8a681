#include "theory/synthetic_balance.hpp"

#include "core/column_map.hpp"
#include "core/pillar_layout.hpp"
#include "md/cell_grid.hpp"
#include "util/pbc.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace pcmd::theory {

std::vector<double> SyntheticBalanceResult::f_max_series() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.f_max);
  return out;
}

std::vector<double> SyntheticBalanceResult::f_min_series() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.f_min);
  return out;
}

std::vector<double> SyntheticBalanceResult::f_avg_series() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.f_avg);
  return out;
}

SyntheticBalanceResult run_synthetic_balance(
    const SyntheticBalanceConfig& config) {
  if (config.steps < 1) {
    throw std::invalid_argument("run_synthetic_balance: steps must be >= 1");
  }
  const core::PillarLayout layout(config.pe_side, config.m);
  const int k = layout.cells_axis();
  const Box box = Box::cubic(k * config.cutoff);
  const md::CellGrid grid(box, k, k, k);
  const workload::ConcentratingWorkload workload(config.workload, box);
  const auto balancer = ddm::make_balancer(
      layout, config.dlb, ddm::BalancerConfig{.kind = config.balancer});

  core::ColumnMap map(layout);
  std::vector<double> previous_times(layout.pe_count(), 0.0);
  SyntheticBalanceResult result;
  result.records.reserve(config.steps);

  std::vector<int> cell_count(grid.num_cells());
  std::vector<double> column_cost(layout.num_columns());
  std::vector<int> column_particles(layout.num_columns());
  std::vector<int> column_empty(layout.num_columns());

  for (int step = 1; step <= config.steps; ++step) {
    const double t = config.steps == 1
                         ? config.progress_end
                         : static_cast<double>(step - 1) / (config.steps - 1);
    const double progress =
        config.progress_begin +
        (config.progress_end - config.progress_begin) * t;
    const auto particles = workload.state(progress);

    // Occupancy.
    std::fill(cell_count.begin(), cell_count.end(), 0);
    for (const auto& p : particles) {
      ++cell_count[grid.cell_of_position(p.position)];
    }

    // Modelled force work per column: for every cell, occupancy times the
    // total occupancy of its stencil — exactly the pair-evaluation count of
    // the paper's force loop.
    std::fill(column_cost.begin(), column_cost.end(), 0.0);
    std::fill(column_particles.begin(), column_particles.end(), 0);
    std::fill(column_empty.begin(), column_empty.end(), 0);
    for (int cell = 0; cell < grid.num_cells(); ++cell) {
      const md::CellCoord coord = grid.coord_of(cell);
      const int col = layout.column_id(coord.x, coord.y);
      const int occupancy = cell_count[cell];
      column_particles[col] += occupancy;
      if (occupancy == 0) {
        ++column_empty[col];
        continue;
      }
      int stencil_total = 0;
      for (const int nc : grid.stencil(cell)) stencil_total += cell_count[nc];
      // Own cell is inside the stencil; subtract self-pairing like the
      // kernel's `q.id == p.id` skip.
      column_cost[col] += static_cast<double>(occupancy) *
                          (stencil_total - 1);
    }

    // Per-rank times from the current ownership.
    std::vector<double> rank_time(layout.pe_count(), 0.0);
    std::vector<int> rank_cells(layout.pe_count(), 0);
    std::vector<int> rank_empty(layout.pe_count(), 0);
    for (int col = 0; col < layout.num_columns(); ++col) {
      const int owner = map.owner(col);
      rank_time[owner] += column_cost[col];
      rank_cells[owner] += k;  // each column is K cells tall
      rank_empty[owner] += column_empty[col];
    }

    SyntheticStepRecord record;
    record.step = step;
    record.f_max = *std::max_element(rank_time.begin(), rank_time.end());
    record.f_min = *std::min_element(rank_time.begin(), rank_time.end());
    double sum = 0.0;
    for (const double v : rank_time) sum += v;
    record.f_avg = sum / layout.pe_count();

    // Concentration inputs via the paper's two-PE estimator.
    ConcentrationInputs inputs;
    inputs.total_cells = grid.num_cells();
    int total_empty = 0;
    for (const int c : cell_count) {
      if (c == 0) ++total_empty;
    }
    inputs.empty_cells = total_empty;
    int max_cells_rank = 0, max_empty_rank = 0;
    for (int r = 1; r < layout.pe_count(); ++r) {
      if (rank_cells[r] > rank_cells[max_cells_rank]) max_cells_rank = r;
      if (rank_empty[r] > rank_empty[max_empty_rank]) max_empty_rank = r;
    }
    inputs.max_domain_cells = rank_cells[max_cells_rank];
    inputs.max_domain_empty = rank_empty[max_cells_rank];
    inputs.max_empty_cells = rank_empty[max_empty_rank];
    inputs.max_empty_domain_cells = rank_cells[max_empty_rank];
    record.concentration = estimate_concentration(step, inputs);

    // The DLB round: every PE decides against the same (consistent) view
    // using the previous step's times, then all transfers apply at once —
    // the same semantics as the SPMD engine's announcement phase.
    if (config.balancer != ddm::BalancerKind::kNone &&
        step % config.dlb.interval == 0) {
      std::vector<core::DlbDecision> decisions;
      decisions.reserve(layout.pe_count());
      const auto& times =
          step == 1 ? rank_time : previous_times;  // paper: last step's time
      for (int rank = 0; rank < layout.pe_count(); ++rank) {
        core::NeighborTimes nt;
        nt.self_time = times[rank];
        for (const int nb : layout.pe_torus().neighbors8(rank)) {
          nt.neighbor_times.push_back(times[nb]);
        }
        decisions.push_back(balancer->decide(
            rank, map, nt, [&](int col) { return column_cost[col]; }));
      }
      for (const auto& d : decisions) {
        if (d.target >= 0) {
          core::DlbProtocol::apply(map, d);
          ++record.transfers;
        }
      }
    }
    previous_times = rank_time;
    result.records.push_back(record);
  }
  return result;
}

}  // namespace pcmd::theory
