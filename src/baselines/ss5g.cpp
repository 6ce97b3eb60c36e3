#include "baselines/ss5g.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/policy.hpp"
#include "phy/airtime.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {

Ss5gCapturePolicy::Ss5gCapturePolicy(Ss5gOptions options)
    : options_(options) {
  require_option(options_.max_superposed >= 1,
                 "Ss5gOptions: max_superposed must be >= 1");
  require_option(options_.min_offset_symbols >= 0.0,
                 "Ss5gOptions: min_offset_symbols must be >= 0");
  require_option(std::isfinite(options_.snr_headroom.value()),
                 "Ss5gOptions: snr_headroom must be finite");
}

bool Ss5gCapturePolicy::recovers(
    const CaptureEvent& wanted,
    std::span<const CaptureEvent> overlappers) const {
  // The superposition count (wanted packet included) is bounded by what the
  // algorithm can disentangle; every overlapper must be same-SF (cross-SF
  // energy defeats the symbol slicer) and offset by whole symbols
  // (near-aligned symbols cannot be sliced apart).
  if (static_cast<int>(overlappers.size()) + 1 > options_.max_superposed) {
    return false;
  }
  const Seconds symbol = symbol_duration(wanted.sf, wanted.bandwidth);
  const Seconds min_offset{options_.min_offset_symbols * symbol.value()};
  const bool sliceable = std::all_of(
      overlappers.begin(), overlappers.end(), [&](const CaptureEvent& other) {
        const Seconds offset{
            std::abs(other.start.value() - wanted.start.value())};
        return other.sf == wanted.sf && offset >= min_offset;
      });
  return sliceable &&
         wanted.snr >= demod_snr_threshold(wanted.sf) + options_.snr_headroom;
}

}  // namespace alphawan
