// Balance visualizer: watch permanent-cell DLB redistribute columns.
//
// Runs the synthetic concentrating workload through the occupancy-driven
// balance simulator and renders the cross-section column ownership as ASCII
// frames: each character is one column, letters identify the owning PE,
// upper-case marks permanent columns (which never move). Watch movable
// columns flow toward the PEs away from the forming droplets.
//
//   ./balance_visualizer [--pe-side 3] [--m 4] [--steps 240] [--frames 4]

#include "core/column_map.hpp"
#include "core/dlb_protocol.hpp"
#include "core/pillar_layout.hpp"
#include "md/cell_grid.hpp"
#include "run/run_spec.hpp"
#include "util/cli.hpp"
#include "workload/synthetic.hpp"

#include <cstdio>
#include <string>
#include <vector>

using namespace pcmd;

namespace {

char glyph(int rank, bool permanent) {
  const char c = static_cast<char>('a' + rank % 26);
  return permanent ? static_cast<char>(c - 'a' + 'A') : c;
}

void render(const core::PillarLayout& layout, const core::ColumnMap& map,
            const std::vector<double>& column_load, int step) {
  const int k = layout.cells_axis();
  std::printf("step %d — columns by owner (UPPERCASE = permanent), right: "
              "load heat map\n", step);
  static const char* kShades = " .:-=+*#%@";
  double max_load = 1.0;
  for (const double v : column_load) max_load = std::max(max_load, v);
  for (int cy = k - 1; cy >= 0; --cy) {
    std::string owners, heat;
    for (int cx = 0; cx < k; ++cx) {
      const int col = layout.column_id(cx, cy);
      owners += glyph(map.owner(col), layout.is_permanent(col));
      const int shade = static_cast<int>(9.0 * column_load[col] / max_load);
      heat += kShades[shade];
    }
    std::printf("  %s   |%s|\n", owners.c_str(), heat.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const int pe_side = static_cast<int>(cli.get_int("pe-side", 3));
  const int m = static_cast<int>(cli.get_int("m", 4));
  const int steps = static_cast<int>(cli.get_int("steps", 240));
  const int frames = static_cast<int>(cli.get_int("frames", 4));
  run::require_all_flags_consumed(cli, "balance_visualizer");

  const core::PillarLayout layout(pe_side, m);
  const int k = layout.cells_axis();
  const Box box = Box::cubic(k * 2.5);
  const md::CellGrid grid(box, k, k, k);

  workload::SyntheticConfig synth;
  synth.particles = 400LL * layout.pe_count();
  synth.num_centers = 3;
  synth.seed = 9;
  const workload::ConcentratingWorkload blob(synth, box);

  core::ColumnMap map(layout);
  core::DlbConfig dlb;
  dlb.fallback_to_helpable = true;
  const core::DlbProtocol protocol(layout, dlb);

  std::vector<double> rank_time(layout.pe_count(), 0.0);
  std::vector<double> column_load(layout.num_columns(), 0.0);

  std::printf("permanent-cell DLB on a %dx%d PE torus, m=%d (K=%d)\n\n",
              pe_side, pe_side, m, k);
  for (int step = 1; step <= steps; ++step) {
    const double progress = static_cast<double>(step - 1) / (steps - 1);
    const auto particles = blob.state(progress);

    std::fill(column_load.begin(), column_load.end(), 0.0);
    for (const auto& p : particles) {
      const auto cell = grid.coord_of(grid.cell_of_position(p.position));
      column_load[layout.column_id(cell.x, cell.y)] += 1.0;
    }
    std::vector<double> new_time(layout.pe_count(), 0.0);
    for (int col = 0; col < layout.num_columns(); ++col) {
      new_time[map.owner(col)] += column_load[col];
    }

    for (int rank = 0; rank < layout.pe_count(); ++rank) {
      core::NeighborTimes times;
      times.self_time = rank_time[rank];
      for (const int nb : layout.pe_torus().neighbors8(rank)) {
        times.neighbor_times.push_back(rank_time[nb]);
      }
      core::DlbProtocol::apply(
          map, protocol.decide(rank, map, times,
                               [&](int col) { return column_load[col]; }));
    }
    rank_time = new_time;

    if (step == 1 || step % std::max(1, steps / frames) == 0) {
      render(layout, map, column_load, step);
      double max_t = 0.0, sum = 0.0;
      for (const double t : rank_time) {
        max_t = std::max(max_t, t);
        sum += t;
      }
      std::printf("  load: max/avg = %.2f\n\n",
                  sum > 0 ? max_t * layout.pe_count() / sum : 0.0);
    }
  }
  return 0;
} catch (const std::exception& e) {
  return run::exit_on_error(e);
}
