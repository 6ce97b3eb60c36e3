#include "core/traffic_estimator.hpp"

#include <gtest/gtest.h>

namespace alphawan {
namespace {

TEST(TrafficEstimator, PeakWindowByDefault) {
  TrafficEstimator estimator;
  std::map<NodeId, std::vector<std::size_t>> series;
  series[1] = {1, 5, 2};
  const auto demand = estimator.estimate(series);
  EXPECT_DOUBLE_EQ(demand.at(1), 5.0);  // the aggressive high-demand sample
}

TEST(TrafficEstimator, SilentNodeGetsFloor) {
  TrafficEstimator estimator;
  std::map<NodeId, std::vector<std::size_t>> series;
  series[1] = {0, 0, 0};
  EXPECT_DOUBLE_EQ(estimator.estimate(series).at(1), 0.5);
}

TEST(TrafficEstimator, EmptySeriesSkipped) {
  TrafficEstimator estimator;
  std::map<NodeId, std::vector<std::size_t>> series;
  series[1] = {};
  EXPECT_TRUE(estimator.estimate(series).empty());
}

}  // namespace
}  // namespace alphawan
