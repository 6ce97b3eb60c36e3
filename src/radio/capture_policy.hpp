// Pluggable gateway-side capture policy: the *receiver algorithm* layered
// on the fixed COTS model of GatewayRadio::process_into (CIC sub-band
// separation, SS5G superposition decoding, CurvingLoRa curvature-orthogonal
// despreading), deciding whether a packet lost to an RF collision is
// recovered.
//
// The decoder budget (paper Sec. 5.2.1) holds by construction: the radio
// asks only about packets it marked kDroppedCollision, which held a
// decoder, and it alone writes outcomes.
//
// Policies run inside concurrent per-gateway tasks (docs/parallelism.md):
// recovers() is const and deterministic, and since the overlappers arrive
// in no particular order, it may depend only on their set.
#pragma once

#include <span>
#include <string_view>

#include "radio/transmission.hpp"

namespace alphawan {

// What a capture policy sees of one transmission.
struct CaptureEvent {
  Seconds start{0.0};
  SpreadingFactor sf = SpreadingFactor::kSF7;
  Hz bandwidth = kLoRaBandwidth125k;
  NodeId node = kInvalidNode;
  Db snr{-200.0};  // packet SNR at this gateway
};

class CapturePolicy {
 public:
  virtual ~CapturePolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // Whether the receiver recovers `wanted`, a collision drop, given every
  // other transmission overlapping it in time with co-channel spectral
  // overlap (overlap_ratio >= kDetectOverlapThreshold) — detected or not,
  // any network.
  [[nodiscard]] virtual bool recovers(
      const CaptureEvent& wanted,
      std::span<const CaptureEvent> overlappers) const = 0;

 protected:
  CapturePolicy() = default;
  CapturePolicy(const CapturePolicy&) = default;
  CapturePolicy& operator=(const CapturePolicy&) = default;
};

}  // namespace alphawan
