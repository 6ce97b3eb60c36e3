#include "common/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace alphawan {
namespace {

Point pt(double x, double y) { return Point{Meters{x}, Meters{y}}; }

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance(pt(0, 0), pt(3, 4)).value(), 5.0);
  EXPECT_DOUBLE_EQ(distance(pt(1, 1), pt(1, 1)).value(), 0.0);
}

TEST(Geometry, Bearing) {
  EXPECT_NEAR(bearing(pt(0, 0), pt(1, 0)), 0.0, 1e-12);
  EXPECT_NEAR(bearing(pt(0, 0), pt(0, 1)), std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(bearing(pt(0, 0), pt(-1, 0)), std::numbers::pi, 1e-12);
}

TEST(Geometry, RegionContains) {
  Region r{Meters{100.0}, Meters{50.0}};
  EXPECT_TRUE(r.contains(pt(0, 0)));
  EXPECT_TRUE(r.contains(pt(100, 50)));
  EXPECT_FALSE(r.contains(pt(101, 10)));
  EXPECT_FALSE(r.contains(pt(10, -1)));
}

TEST(Geometry, RandomPointInsideRegion) {
  Region r{Meters{200.0}, Meters{300.0}};
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(r.contains(r.random_point(rng)));
  }
}

TEST(Geometry, GridPlacementCountAndBounds) {
  Region r{Meters{2100.0}, Meters{1600.0}};
  Rng rng(3);
  for (std::size_t count : {1u, 3u, 15u, 20u}) {
    const auto pts = grid_placement(r, count, rng);
    EXPECT_EQ(pts.size(), count);
    for (const auto& p : pts) EXPECT_TRUE(r.contains(p));
  }
}

TEST(Geometry, GridPlacementZero) {
  Region r;
  Rng rng(3);
  EXPECT_TRUE(grid_placement(r, 0, rng).empty());
}

TEST(Geometry, GridPlacementSpreads) {
  // With 4 gateways the pairwise minimum distance should be a sizable
  // fraction of the region (not all clumped).
  Region r{Meters{2000.0}, Meters{2000.0}};
  Rng rng(7);
  const auto pts = grid_placement(r, 4, rng, 0.0);
  Meters min_dist{1e9};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      min_dist = std::min(min_dist, distance(pts[i], pts[j]));
    }
  }
  EXPECT_GT(min_dist, Meters{500.0});
}

TEST(Geometry, UniformPlacement) {
  Region r{Meters{500.0}, Meters{500.0}};
  Rng rng(9);
  const auto pts = uniform_placement(r, 100, rng);
  EXPECT_EQ(pts.size(), 100u);
  for (const auto& p : pts) EXPECT_TRUE(r.contains(p));
}

}  // namespace
}  // namespace alphawan
