#include "core/traffic_estimator.hpp"

#include <algorithm>

namespace alphawan {

std::map<NodeId, double> TrafficEstimator::estimate(
    const std::map<NodeId, std::vector<std::size_t>>& series) const {
  std::map<NodeId, double> demand;
  for (const auto& [node, counts] : series) {
    if (counts.empty()) continue;
    const auto peak = *std::max_element(counts.begin(), counts.end());
    demand.emplace_hint(demand.end(), node,
                        std::max(0.5, static_cast<double>(peak)));
  }
  return demand;
}

}  // namespace alphawan
