#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside [0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double highest_supported_percentile(std::size_t count) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    // Samples strictly beyond the p-th percentile.
    const double beyond = static_cast<double>(count) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = median(samples);
  s.max = *std::max_element(samples.begin(), samples.end());
  s.tail_percentile = highest_supported_percentile(samples.size());
  if (s.tail_percentile > 0.0) {
    s.tail_value = percentile(samples, s.tail_percentile);
  }
  return s;
}

}  // namespace perfbench
