#include "baselines/curvinglora.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/policy.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {

CurvingLoraCapturePolicy::CurvingLoraCapturePolicy(CurvingLoraOptions options)
    : options_(options) {
  require_option(options_.curvature_count >= 1,
                 "CurvingLoraOptions: curvature_count must be >= 1");
  require_option(std::isfinite(options_.snr_headroom.value()),
                 "CurvingLoraOptions: snr_headroom must be finite");
}

bool CurvingLoraCapturePolicy::recovers(
    const CaptureEvent& wanted,
    std::span<const CaptureEvent> overlappers) const {
  // Despreading with the wanted packet's curvature suppresses every same-SF
  // interferer on a *different* curvature; a same-curvature interferer (or
  // any cross-SF overlapper — curvature families are defined within one SF)
  // keeps the collision fatal.
  const int wanted_curvature = curvature_of(wanted.node);
  const bool orthogonal = std::none_of(
      overlappers.begin(), overlappers.end(), [&](const CaptureEvent& other) {
        return other.sf != wanted.sf ||
               curvature_of(other.node) == wanted_curvature;
      });
  return orthogonal &&
         wanted.snr >= demod_snr_threshold(wanted.sf) + options_.snr_headroom;
}

}  // namespace alphawan
