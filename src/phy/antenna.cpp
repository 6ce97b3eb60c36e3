#include "phy/antenna.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace alphawan {

Db Antenna::gain_towards(const Point& from, const Point& to,
                         double boresight_rad) const {
  return gain(bearing(from, to) - boresight_rad);
}

Db DirectionalAntenna::gain(double angle) const {
  // Wrap to [-pi, pi] and use the absolute off-boresight angle.
  double a = std::remainder(angle, 2.0 * std::numbers::pi);
  a = std::abs(a);
  const double half_beam = config_.beamwidth_rad / 2.0;
  if (a <= half_beam) {
    // Parabolic main lobe: -3 dB at the half-power beamwidth edge.
    const double frac = a / half_beam;
    return config_.peak_gain_dbi - Db{3.0 * frac * frac};
  }
  // Outside the main lobe: interpolate attenuation from first sidelobe
  // level to the front-to-back floor as the angle approaches pi.
  const double t = std::clamp((a - half_beam) / (std::numbers::pi - half_beam),
                              0.0, 1.0);
  const Db attenuation =
      config_.first_sidelobe_db +
      t * (config_.front_to_back_db - config_.first_sidelobe_db);
  return config_.peak_gain_dbi - attenuation;
}

}  // namespace alphawan
