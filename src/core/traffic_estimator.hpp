// AlphaWAN's traffic estimator (paper Sec. 4.3.3): combines per-window
// traffic series across gateways and "aggressively uses samples with high
// capacity demand" so the computed plan covers peak rather than average
// load.
#pragma once

#include <map>
#include <vector>

#include "common/types.hpp"

namespace alphawan {

// Each node's demand is its peak window count, floored at 0.5 packets per
// window so a node heard at least once (even with all-zero windows) still
// gets a slot.
class TrafficEstimator {
 public:
  // Estimated demand (packets per window) per node; nodes with an empty
  // series are skipped.
  [[nodiscard]] std::map<NodeId, double> estimate(
      const std::map<NodeId, std::vector<std::size_t>>& series) const;
};

}  // namespace alphawan
