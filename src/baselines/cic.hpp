// Baseline: CIC-style concurrent interference cancellation (Shahid et al.,
// SIGCOMM'21). A CIC receiver separates up to K time-overlapping
// same-channel transmissions using sub-band spectra, recovering packets a
// stock demodulator loses to collisions. Per the paper's methodology
// (Sec. 5.2.1), CIC is still subject to the COTS decoder budget: resolving
// a collision does not conjure a free decoder, so decoder-contention drops
// stay dropped.
#pragma once

#include <span>

#include "radio/capture_policy.hpp"

namespace alphawan {

// Registry scheme "cic" (capture side): promotes collision drops back to
// receptions when CIC could have resolved them.
class CicCapturePolicy final : public CapturePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "cic"; }
  [[nodiscard]] bool recovers(
      const CaptureEvent& wanted,
      std::span<const CaptureEvent> overlappers) const override;
};

}  // namespace alphawan
