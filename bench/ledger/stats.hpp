// Summary statistics for the ledger. Every function takes its samples by
// value or span and never mutates the caller's data.
#pragma once

#include <array>
#include <span>
#include <vector>

namespace pcmd::ledger {

// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample, p in
// (0, 100]. Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

// Median as Python's statistics.median: the middle sample, or the mean of
// the two middle samples. Returns 0 for an empty sample.
double median(std::vector<double> samples);

// The highest percentile of {50, 75, 90, 95, 99, 99.9} that leaves at
// least `beyond` samples above its nearest-rank position among n samples;
// 0 when not even the median does.
double highest_percentile_with(std::size_t n, std::size_t beyond = 10);

// Quartiles exactly as Python's statistics.quantiles(samples, n=4) with the
// default "exclusive" method. A single sample yields it three times.
std::array<double, 3> quartiles(std::vector<double> samples);

// Makespan of Graham's LPT schedule of `jobs` onto `workers` machines:
// longest job first, each onto the least-loaded machine.
double lpt_makespan(std::vector<double> jobs, int workers);

// Pearson correlation of paired samples; 0 when either side is constant or
// fewer than two pairs exist.
double pearson_r(std::span<const double> x, std::span<const double> y);

}  // namespace pcmd::ledger
