#include "ddm/balancer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pcmd::ddm {

namespace {

// Sum of the loads of every column `rank` currently owns — the sender-side
// normalisation both capped policies use to convert time gaps into load
// budgets.
double self_load_of(int rank, const core::ColumnMap& map,
                    const std::function<double(int)>& column_load) {
  double load = 0.0;
  for (const int col : map.columns_of(rank)) load += column_load(col);
  return load;
}

// The paper's protocol, verbatim: core::DlbProtocol already is a pure
// decision function, so the policy is a thin shell. Bitwise identity with
// the pre-refactor engine is guarded by tests/regression.
class PermanentCellBalancer final : public Balancer {
 public:
  PermanentCellBalancer(const core::PillarLayout& layout,
                        const core::DlbConfig& dlb)
      : protocol_(layout, dlb) {}

  BalancerKind kind() const override { return BalancerKind::kPermanent; }
  int max_columns_per_step() const override { return 1; }

  core::DlbDecision decide(
      int rank, const core::ColumnMap& map, const core::NeighborTimes& times,
      const std::function<double(int)>& column_load) const override {
    return protocol_.decide(rank, map, times, column_load);
  }

 private:
  core::DlbProtocol protocol_;
};

// rescale: a single move may carry at most this fraction of the sender's
// current load (HOOMD caps boundary movement per rebalancing step).
constexpr double kRescaleMaxFraction = 0.5;

// HOOMD-style capped rescaling: gate on the measured fractional load
// imbalance of the 9-PE neighbourhood, then walk the strictly faster
// neighbours fastest-first and move one column whose load fits both the
// overshoot cap ((t_self - t_nb) / t_self of my load) and the per-move
// fraction cap kRescaleMaxFraction.
class RescaleBalancer final : public Balancer {
 public:
  RescaleBalancer(const core::PillarLayout& layout,
                  const core::DlbConfig& dlb, const BalancerConfig& config)
      : layout_(&layout), protocol_(layout, dlb), config_(config) {}

  BalancerKind kind() const override { return BalancerKind::kRescale; }
  int max_columns_per_step() const override { return 1; }

  core::DlbDecision decide(
      int rank, const core::ColumnMap& map, const core::NeighborTimes& times,
      const std::function<double(int)>& column_load) const override {
    // Neighbourhood fractional imbalance I = t_self / mean - 1, dead
    // (infinite) entries excluded. Below tolerance nothing moves: this is
    // the hysteresis that keeps rescaling from oscillating on noise.
    double sum = times.self_time;
    int live = 1;
    for (const double t : times.neighbor_times) {
      if (std::isinf(t)) continue;
      sum += t;
      ++live;
    }
    const double mean = sum / static_cast<double>(live);
    if (mean <= 0.0 ||
        times.self_time / mean - 1.0 <= config_.rescale_tolerance) {
      return {};
    }

    // Strictly faster neighbours, fastest first; ties break on the lower
    // rank id so the walk is deterministic.
    const auto neighbors = layout_->pe_torus().neighbors8(rank);
    std::vector<std::pair<double, int>> ordered;
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const double t = times.neighbor_times[k];
      if (t < times.self_time) ordered.emplace_back(t, neighbors[k]);
    }
    std::sort(ordered.begin(), ordered.end());
    ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());

    const double self_load = self_load_of(rank, map, column_load);
    for (const auto& [t, nb] : ordered) {
      if (nb == rank) continue;
      double cap = std::numeric_limits<double>::infinity();
      if (times.self_time > 0.0 && self_load > 0.0) {
        cap = std::min(
            (times.self_time - t) / times.self_time * self_load,
            kRescaleMaxFraction * self_load);
      }
      const core::DlbDecision d =
          protocol_.decide_for_target(rank, map, nb, column_load, cap);
      if (d.target >= 0) return d;
    }
    return {};
  }

 private:
  const core::PillarLayout* layout_;
  core::DlbProtocol protocol_;
  BalancerConfig config_;
};

// Nearest-neighbour diffusion along the torus column axis: each rank trades
// only with its (i, j-1) and (i, j+1) neighbours — j-1 is an upper-left
// direction (own movable columns flow out), j+1 a lower-right one (foreign
// columns flow home) — moving load down the local time gradient when the
// relative gap clears the threshold. The moved column's load is capped at
// half the gap-proportional budget, the classic diffusion alpha = 1/2 that
// keeps a pairwise exchange from overshooting the midpoint.
class DiffusionBalancer final : public Balancer {
 public:
  DiffusionBalancer(const core::PillarLayout& layout,
                    const core::DlbConfig& dlb, const BalancerConfig& config)
      : layout_(&layout), protocol_(layout, dlb), config_(config) {}

  BalancerKind kind() const override { return BalancerKind::kDiffusion; }
  int max_columns_per_step() const override { return 1; }

  core::DlbDecision decide(
      int rank, const core::ColumnMap& map, const core::NeighborTimes& times,
      const std::function<double(int)>& column_load) const override {
    if (times.self_time <= 0.0) return {};
    const auto& torus = layout_->pe_torus();
    const auto neighbors = torus.neighbors8(rank);
    const sim::Coord2 me = torus.coord_of(rank);

    // The two axis neighbours and their digest times.
    struct Target {
      double time = 0.0;
      int rank = -1;
    };
    std::vector<Target> targets;
    for (const int dj : {-1, +1}) {
      const int nb = torus.rank_of({me.i, me.j + dj});
      const auto it = std::find(neighbors.begin(), neighbors.end(), nb);
      if (it == neighbors.end()) continue;
      targets.push_back(
          {times.neighbor_times[static_cast<std::size_t>(
               it - neighbors.begin())],
           nb});
    }
    // Steeper gradient first; ties break on the lower rank id.
    std::sort(targets.begin(), targets.end(),
              [](const Target& a, const Target& b) {
                return a.time != b.time ? a.time < b.time : a.rank < b.rank;
              });

    const double self_load = self_load_of(rank, map, column_load);
    for (const auto& target : targets) {
      const double gap = (times.self_time - target.time) / times.self_time;
      if (!(gap > config_.diffusion_threshold)) continue;
      double cap = std::numeric_limits<double>::infinity();
      if (self_load > 0.0) cap = 0.5 * gap * self_load;
      const core::DlbDecision d = protocol_.decide_for_target(
          rank, map, target.rank, column_load, cap);
      if (d.target >= 0) return d;
    }
    return {};
  }

 private:
  const core::PillarLayout* layout_;
  core::DlbProtocol protocol_;
  BalancerConfig config_;
};

// DDM: nothing ever moves (ParallelMd skips the decision for this kind).
class NoopBalancer final : public Balancer {
 public:
  BalancerKind kind() const override { return BalancerKind::kNone; }
  int max_columns_per_step() const override { return 0; }

  core::DlbDecision decide(
      int, const core::ColumnMap&, const core::NeighborTimes&,
      const std::function<double(int)>&) const override {
    return {};
  }
};

}  // namespace

const char* balancer_name(BalancerKind kind) {
  switch (kind) {
    case BalancerKind::kPermanent:
      return "permanent";
    case BalancerKind::kRescale:
      return "rescale";
    case BalancerKind::kDiffusion:
      return "diffusion";
    case BalancerKind::kNone:
      return "none";
  }
  return "unknown";
}

BalancerKind parse_balancer_kind(const std::string& name) {
  for (const BalancerKind kind : all_balancer_kinds()) {
    if (name == balancer_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown balancer policy \"" + name +
                              "\" (expected permanent|rescale|diffusion|none)");
}

std::vector<BalancerKind> all_balancer_kinds() {
  return {BalancerKind::kPermanent, BalancerKind::kRescale,
          BalancerKind::kDiffusion, BalancerKind::kNone};
}

std::unique_ptr<Balancer> make_balancer(const core::PillarLayout& layout,
                                        const core::DlbConfig& dlb,
                                        const BalancerConfig& config) {
  switch (config.kind) {
    case BalancerKind::kPermanent:
      return std::make_unique<PermanentCellBalancer>(layout, dlb);
    case BalancerKind::kRescale:
      return std::make_unique<RescaleBalancer>(layout, dlb, config);
    case BalancerKind::kDiffusion:
      return std::make_unique<DiffusionBalancer>(layout, dlb, config);
    case BalancerKind::kNone:
      return std::make_unique<NoopBalancer>();
  }
  throw std::invalid_argument("make_balancer: unknown BalancerKind");
}

}  // namespace pcmd::ddm
