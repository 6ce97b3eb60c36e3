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

// Registry scheme "ss5g" (capture side): rescues collision drops the
// superposition decoder could have separated.
class Ss5gCapturePolicy final : public CapturePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "ss5g"; }
  [[nodiscard]] bool recovers(
      const CaptureEvent& wanted,
      std::span<const CaptureEvent> overlappers) const override;
};

}  // namespace alphawan
