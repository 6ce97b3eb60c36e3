#include "baselines/cic.hpp"

#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

// Maximum simultaneous same-channel transmissions CIC can disentangle.
constexpr int kMaxResolvable = 3;
// Minimum SNR headroom above the demod threshold CIC needs to separate
// sub-band spectra reliably.
constexpr Db kSnrHeadroom{1.0};

}  // namespace

bool CicCapturePolicy::recovers(
    const CaptureEvent& wanted,
    std::span<const CaptureEvent> overlappers) const {
  // CIC separates up to kMaxResolvable simultaneous transmissions on
  // (nearly) the same channel, given workable SNR to pick apart sub-band
  // spectra.
  return static_cast<int>(overlappers.size()) < kMaxResolvable &&
         wanted.snr >= demod_snr_threshold(wanted.sf) + kSnrHeadroom;
}

}  // namespace alphawan
