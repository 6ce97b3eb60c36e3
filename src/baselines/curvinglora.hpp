// Baseline: CurvingLoRa-style concurrent-transmission capture (Li et al.,
// NSDI'22). Nonlinear ("curved") chirps replace LoRa's linear upchirps;
// transmissions using distinct curvatures stay quasi-orthogonal even on
// the same channel and spreading factor, so a gateway can despread a
// packet straight through a collision with differently-curved interferers.
// Curvature diversity fixes RF collisions only: every concurrently decoded
// packet still holds a decoder, so the pool stays the bottleneck.
#pragma once

#include <span>

#include "baselines/standard_lorawan.hpp"
#include "radio/capture_policy.hpp"

namespace alphawan {

// Registry scheme "curvinglora" (capture side): rescues collision drops
// whose same-SF interferers all use a different curvature than the wanted
// packet.
class CurvingLoraCapturePolicy final : public CapturePolicy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "curvinglora";
  }
  [[nodiscard]] bool recovers(
      const CaptureEvent& wanted,
      std::span<const CaptureEvent> overlappers) const override;

  // The curvature family a node's radio is configured with: a static hash
  // of its id (curvature is baked into the radio configuration, not
  // negotiated per packet).
  [[nodiscard]] static int curvature_of(NodeId node);
};

}  // namespace alphawan
