#include "baselines/cic.hpp"

#include <cmath>

#include "baselines/policy.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {

CicCapturePolicy::CicCapturePolicy(CicOptions options) : options_(options) {
  require_option(options_.max_resolvable >= 1,
                 "CicOptions: max_resolvable must be >= 1");
  require_option(std::isfinite(options_.snr_headroom.value()),
                 "CicOptions: snr_headroom must be finite");
}

bool CicCapturePolicy::recovers(
    const CaptureEvent& wanted,
    std::span<const CaptureEvent> overlappers) const {
  // CIC separates up to max_resolvable simultaneous transmissions on
  // (nearly) the same channel, given workable SNR to pick apart sub-band
  // spectra.
  return static_cast<int>(overlappers.size()) < options_.max_resolvable &&
         wanted.snr >= demod_snr_threshold(wanted.sf) + options_.snr_headroom;
}

}  // namespace alphawan
