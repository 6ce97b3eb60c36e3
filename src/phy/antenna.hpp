// Antenna gain patterns. Used by the Fig. 7 experiment: a 12 dBi
// directional antenna attenuates off-axis packets by 14-40 dB, yet LoRa's
// sub-noise sensitivity means those packets are still received — which is
// why Strategy 6 (directional sectorization) fails to relieve decoder
// contention.
#pragma once

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace alphawan {

class Antenna {
 public:
  virtual ~Antenna() = default;
  // Gain (dBi) toward azimuth `angle` (radians) relative to boresight.
  [[nodiscard]] virtual Db gain(double angle) const = 0;
  // Gain of an antenna at `from` whose boresight points at azimuth
  // `boresight_rad`, toward `to`: gain(bearing(from, to) - boresight_rad).
  // A pattern that ignores the angle overrides it to skip the bearing.
  [[nodiscard]] virtual Db gain_towards(const Point& from, const Point& to,
                                        double boresight_rad) const;
};

class OmniAntenna final : public Antenna {
 public:
  explicit OmniAntenna(Db gain_dbi = Db{2.0}) : gain_dbi_(gain_dbi) {}
  [[nodiscard]] Db gain(double /*angle*/) const override { return gain_dbi_; }
  [[nodiscard]] Db gain_towards(const Point& /*from*/, const Point& /*to*/,
                                double /*boresight_rad*/) const override {
    return gain_dbi_;
  }

 private:
  Db gain_dbi_;
};

// Parametric sector antenna modeled on the RAK 12 dBi panel: full gain
// within the main lobe, smoothly rolling off to a back-lobe floor 14-40 dB
// below peak depending on angle.
class DirectionalAntenna final : public Antenna {
 public:
  struct Config {
    Db peak_gain_dbi{12.0};
    double beamwidth_rad = 0.52;    // ~30 degrees half-power beamwidth
    Db front_to_back_db{40.0};     // max attenuation directly behind
    Db first_sidelobe_db{14.0};    // attenuation just outside main lobe
  };

  DirectionalAntenna() : config_{} {}
  explicit DirectionalAntenna(Config config) : config_(config) {}
  [[nodiscard]] Db gain(double angle) const override;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace alphawan
