// Order statistics for the benchmark's timing samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Linear-interpolation percentile (the "inclusive" definition: rank
// p/100 * (n - 1) between the sorted samples). `p` is in [0, 100].
// Throws std::invalid_argument on an empty sample or p outside [0, 100].
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] double median(std::vector<double> samples);

// The highest of the percentiles 99.9, 99, 90 and 50 that has at least ten
// samples beyond it in a sample of `count`, or 0 when even the median has
// fewer than ten above it. A tail figure without ten samples past it is
// one or two outliers, not a percentile.
[[nodiscard]] double highest_supported_percentile(std::size_t count);

// Summary of one timing sample: count, median, maximum and the highest
// supported tail percentile with its value (0/0 when there is none).
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double max = 0.0;
  double tail_percentile = 0.0;
  double tail_value = 0.0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

}  // namespace perfbench
