#include "baselines/curvinglora.hpp"

#include <algorithm>

#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

// Number of curvature-orthogonal chirp families the deployment assigns.
constexpr std::uint64_t kCurvatureCount = 4;
// SNR headroom above the demod threshold needed to despread through the
// residual cross-curvature energy.
constexpr Db kSnrHeadroom{1.0};

}  // namespace

int CurvingLoraCapturePolicy::curvature_of(NodeId node) {
  return static_cast<int>(static_cast<std::uint64_t>(node) % kCurvatureCount);
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
         wanted.snr >= demod_snr_threshold(wanted.sf) + kSnrHeadroom;
}

}  // namespace alphawan
