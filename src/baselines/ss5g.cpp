#include "baselines/ss5g.hpp"

#include <algorithm>
#include <cmath>

#include "phy/airtime.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

// Maximum superposed same-SF signals the decoder can disentangle (wanted
// packet included). The published algorithm handles 2.
constexpr int kMaxSuperposed = 2;
// Minimum timing offset between any colliding pair, in symbols: the
// de-superposition needs whole mis-aligned symbols to slice at.
constexpr double kMinOffsetSymbols = 3.0;
// SNR headroom above the demod threshold needed for reliable slicing.
constexpr Db kSnrHeadroom{1.0};

}  // namespace

bool Ss5gCapturePolicy::recovers(
    const CaptureEvent& wanted,
    std::span<const CaptureEvent> overlappers) const {
  // The superposition count (wanted packet included) is bounded by what the
  // algorithm can disentangle; every overlapper must be same-SF (cross-SF
  // energy defeats the symbol slicer) and offset by whole symbols
  // (near-aligned symbols cannot be sliced apart).
  if (static_cast<int>(overlappers.size()) + 1 > kMaxSuperposed) {
    return false;
  }
  const Seconds symbol = symbol_duration(wanted.sf, wanted.bandwidth);
  const Seconds min_offset{kMinOffsetSymbols * symbol.value()};
  const bool sliceable = std::all_of(
      overlappers.begin(), overlappers.end(), [&](const CaptureEvent& other) {
        const Seconds offset{
            std::abs(other.start.value() - wanted.start.value())};
        return other.sf == wanted.sf && offset >= min_offset;
      });
  return sliceable &&
         wanted.snr >= demod_snr_threshold(wanted.sf) + kSnrHeadroom;
}

}  // namespace alphawan
