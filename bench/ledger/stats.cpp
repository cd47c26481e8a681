#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

namespace pcmd::ledger {

namespace {

// 1-based nearest rank of percentile p among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double highest_percentile_with(std::size_t n, std::size_t beyond) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n > 0 && n - nearest_rank(n, p) >= beyond) best = p;
  }
  return best;
}

std::array<double, 3> quartiles(std::vector<double> samples) {
  if (samples.empty()) return {0.0, 0.0, 0.0};
  std::sort(samples.begin(), samples.end());
  const auto ld = static_cast<long>(samples.size());
  if (ld == 1) return {samples[0], samples[0], samples[0]};
  // statistics.quantiles, method="exclusive", n=4, in exact integer steps.
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, ld - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const double below = samples[static_cast<std::size_t>(j - 1)];
    const double above = samples[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i - 1)] =
        (below * (4.0 - delta) + above * delta) / 4.0;
  }
  return out;
}

double lpt_makespan(std::vector<double> jobs, int workers) {
  if (jobs.empty() || workers < 1) return 0.0;
  std::sort(jobs.begin(), jobs.end(), std::greater<>());
  std::priority_queue<double, std::vector<double>, std::greater<>> loads;
  for (int w = 0; w < workers; ++w) loads.push(0.0);
  double makespan = 0.0;
  for (const double job : jobs) {
    const double load = loads.top() + job;
    loads.pop();
    loads.push(load);
    makespan = std::max(makespan, load);
  }
  return makespan;
}

double pearson_r(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace pcmd::ledger
