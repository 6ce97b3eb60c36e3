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

struct CicOptions {
  // Maximum simultaneous same-channel transmissions CIC can disentangle.
  int max_resolvable = 3;
  // Minimum SNR headroom above the demod threshold CIC needs to separate
  // sub-band spectra reliably.
  Db snr_headroom{1.0};
};

// Registry scheme "cic" (capture side): promotes collision drops back to
// receptions when CIC could have resolved them.
class CicCapturePolicy final : public CapturePolicy {
 public:
  // Throws std::invalid_argument naming the field on max_resolvable < 1 or
  // a non-finite snr_headroom.
  explicit CicCapturePolicy(CicOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "cic"; }
  [[nodiscard]] bool recovers(
      const CaptureEvent& wanted,
      std::span<const CaptureEvent> overlappers) const override;

  [[nodiscard]] const CicOptions& options() const { return options_; }

 private:
  CicOptions options_;
};

}  // namespace alphawan
