#include "compare.hpp"

#include "registry.hpp"
#include "stats.hpp"

#include "serve/flat_json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace pcmd::ledger {

namespace {

// The "<workload>/<metric>" values of one ledger file.
std::map<std::string, double> read_ledger(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("compare: cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::map<std::string, double> values;
  for (const auto& [key, value] : serve::parse_flat_json(text.str())) {
    if (key.find('/') == std::string::npos) continue;  // host facts, totals
    values[key] = std::stod(value);
  }
  return values;
}

}  // namespace

int compare(const std::vector<std::string>& parents,
            const std::vector<std::string>& changes) {
  if (parents.empty() || parents.size() != changes.size()) {
    throw std::runtime_error(
        "compare: give as many --against files as --compare files (one "
        "parent/change pair each)");
  }
  std::vector<std::map<std::string, double>> parent, change;
  for (const auto& path : parents) parent.push_back(read_ledger(path));
  for (const auto& path : changes) change.push_back(read_ledger(path));
  const std::size_t n = parents.size();

  std::printf("%-44s %11s %23s %11s %23s %5s  %s\n", "workload/metric",
              "parent p50", "parent [q1, q3]", "change p50", "change [q1, q3]",
              "won", "verdict");
  int regressions = 0;
  for (const auto& workload : workloads()) {
    for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
      for (const auto& metric : *list) {
        const std::string key =
            std::string(workload.name) + "/" + metric.name;
        std::vector<double> p, c;
        for (std::size_t i = 0; i < n; ++i) {
          const auto pi = parent[i].find(key);
          const auto ci = change[i].find(key);
          if (pi == parent[i].end() || ci == change[i].end()) break;
          p.push_back(pi->second);
          c.push_back(ci->second);
        }
        if (p.size() != n) continue;  // not measured on both sides
        const bool higher = metric.higher_is_better;
        const auto better = [higher](double a, double b) {
          return higher ? a > b : a < b;
        };
        std::size_t won = 0;
        for (std::size_t i = 0; i < n; ++i) won += better(c[i], p[i]) ? 1 : 0;
        const double share = static_cast<double>(won) / static_cast<double>(n);
        const double mp = median(p);
        const double mc = median(c);
        const auto qp = quartiles(p);
        const auto qc = quartiles(c);
        std::string verdict = "-";
        if (metric.bound > 0.0) {
          const double scale = std::max(std::abs(mp), 1e-300);
          const double spread = (qp[2] - qp[0]) / scale;
          const double worse = (higher ? mp - mc : mc - mp) / scale;
          const bool all_better =
              higher ? *std::min_element(c.begin(), c.end()) >
                           *std::max_element(p.begin(), p.end())
                     : *std::max_element(c.begin(), c.end()) <
                           *std::min_element(p.begin(), p.end());
          if (share >= 0.9 && better(mc, mp) &&
              std::abs(mc - mp) > qp[2] - qp[0]) {
            verdict = "improved";
          } else if (spread > metric.bound && !all_better) {
            verdict = "unresolved";
          } else if (worse > metric.bound) {
            verdict = "regressed";
            ++regressions;
          } else {
            verdict = "unchanged";
          }
        }
        std::printf("%-44s %11.5g [%10.5g, %10.5g] %11.5g [%10.5g, %10.5g] "
                    "%4.0f%%  %s\n",
                    key.c_str(), mp, qp[0], qp[2], mc, qc[0], qc[2],
                    100.0 * share, verdict.c_str());
      }
    }
  }
  std::printf("%zu pair(s); %d regression(s)\n", n, regressions);
  return regressions > 0 ? 1 : 0;
}

}  // namespace pcmd::ledger
