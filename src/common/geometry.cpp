#include "common/geometry.hpp"

#include <algorithm>
#include <cmath>

namespace alphawan {

Meters distance(const Point& a, const Point& b) {
  const double dx = a.x.value() - b.x.value();
  const double dy = a.y.value() - b.y.value();
  return Meters{std::sqrt(dx * dx + dy * dy)};
}

double bearing(const Point& from, const Point& to) {
  return std::atan2(to.y.value() - from.y.value(), to.x.value() - from.x.value());
}

Point Region::random_point(Rng& rng) const {
  return {Meters{rng.uniform(0.0, width.value())},
          Meters{rng.uniform(0.0, height.value())}};
}

bool Region::contains(const Point& p) const {
  return p.x >= Meters{0.0} && p.x <= width && p.y >= Meters{0.0} &&
         p.y <= height;
}

std::vector<Point> grid_placement(const Region& region, std::size_t count,
                                  Rng& rng, double jitter_fraction) {
  std::vector<Point> points;
  points.reserve(count);
  if (count == 0) return points;
  // Pick the most-square grid that holds `count` cells.
  const auto cols = static_cast<std::size_t>(std::ceil(std::sqrt(
      static_cast<double>(count) * region.width.value() / region.height.value())));
  const std::size_t rows = (count + cols - 1) / cols;
  const double cell_w = region.width.value() / static_cast<double>(cols);
  const double cell_h = region.height.value() / static_cast<double>(rows);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    const double jitter_x =
        rng.uniform(-jitter_fraction, jitter_fraction) * cell_w;
    const double jitter_y =
        rng.uniform(-jitter_fraction, jitter_fraction) * cell_h;
    Point p{Meters{(static_cast<double>(c) + 0.5) * cell_w + jitter_x},
            Meters{(static_cast<double>(r) + 0.5) * cell_h + jitter_y}};
    p.x = std::clamp(p.x, Meters{0.0}, region.width);
    p.y = std::clamp(p.y, Meters{0.0}, region.height);
    points.push_back(p);
  }
  return points;
}

std::vector<Point> uniform_placement(const Region& region, std::size_t count,
                                     Rng& rng) {
  std::vector<Point> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(region.random_point(rng));
  }
  return points;
}

}  // namespace alphawan
