// 2-D geometry for the deployment plane (the paper's testbed covers a
// 2.1 km x 1.6 km urban area; we model node and gateway placement on a
// metric plane).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace alphawan {

struct Point {
  Meters x{};
  Meters y{};

  friend bool operator==(const Point&, const Point&) = default;
};

[[nodiscard]] Meters distance(const Point& a, const Point& b);

// Azimuth (radians, in [-pi, pi]) of `to` as seen from `from`.
[[nodiscard]] double bearing(const Point& from, const Point& to);

// A rectangular deployment region.
struct Region {
  Meters width{2100.0};   // paper testbed: 2.1 km
  Meters height{1600.0};  // paper testbed: 1.6 km

  [[nodiscard]] Point center() const { return {width / 2, height / 2}; }
  [[nodiscard]] Point random_point(Rng& rng) const;
  [[nodiscard]] bool contains(const Point& p) const;
};

// Evenly spread `count` points on a jittered grid covering the region —
// how an operator would place gateways for coverage.
[[nodiscard]] std::vector<Point> grid_placement(const Region& region,
                                                std::size_t count,
                                                Rng& rng,
                                                double jitter_fraction = 0.1);

// Uniformly random placement (used for nodes).
[[nodiscard]] std::vector<Point> uniform_placement(const Region& region,
                                                   std::size_t count,
                                                   Rng& rng);

}  // namespace alphawan
