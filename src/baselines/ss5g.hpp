// Baseline: SS5G-style collision resolution (El Rachkidy, Guitton &
// Kamoun — "decoding superposed LoRa signals"). When two same-SF
// transmissions collide with a sufficient timing offset, the receiver can
// slice the superposed symbol stream at the offset boundaries and recover
// both packets. The scheme was designed assuming RF collisions are the
// bottleneck; under the paper's decoder-contention model each recovered
// packet still occupied its own decoder, so decoder drops stay dropped.
#pragma once

#include <span>

#include "baselines/standard_lorawan.hpp"
#include "radio/capture_policy.hpp"

namespace alphawan {

struct Ss5gOptions {
  // Maximum superposed same-SF signals the decoder can disentangle
  // (wanted packet included). The published algorithm handles 2.
  int max_superposed = 2;
  // Minimum timing offset between any colliding pair, in symbols: the
  // de-superposition needs whole mis-aligned symbols to slice at.
  double min_offset_symbols = 3.0;
  // SNR headroom above the demod threshold needed for reliable slicing.
  Db snr_headroom{1.0};
};

// Registry scheme "ss5g" (capture side): rescues collision drops the
// superposition decoder could have separated.
class Ss5gCapturePolicy final : public CapturePolicy {
 public:
  // Throws std::invalid_argument naming the field on max_superposed < 1, a
  // negative or NaN min_offset_symbols, or a non-finite snr_headroom.
  explicit Ss5gCapturePolicy(Ss5gOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "ss5g"; }
  [[nodiscard]] bool recovers(
      const CaptureEvent& wanted,
      std::span<const CaptureEvent> overlappers) const override;

  [[nodiscard]] const Ss5gOptions& options() const { return options_; }

 private:
  Ss5gOptions options_;
};

}  // namespace alphawan
