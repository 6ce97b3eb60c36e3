// Pluggable gateway-side capture policy: how overlapping receptions
// resolve after the stock pipeline ran. The COTS model in
// GatewayRadio::process_into is the fixed physical baseline (front-end, FCFS
// decoder dispatch, co/inter-SF SIR capture tests); a CapturePolicy is the
// *receiver algorithm* layered on top — CIC sub-band separation, SS5G
// superposition decoding, CurvingLoRa curvature-orthogonal despreading —
// which may rescue packets the stock demodulator lost to collisions.
//
// The decoder budget is the paper's methodology boundary (Sec. 5.2.1): a
// policy may only rewrite outcomes whose packet already HELD a decoder
// (consumed_decoder(disposition) == true). Decoder-contention drops,
// undetected packets, and front-end rejections are off limits — resolving
// a collision does not conjure a free decoder. GatewayRadio enforces this
// contract after every resolve() call.
//
// Policies run inside concurrent per-gateway tasks (docs/parallelism.md):
// resolve() must be const, must not touch state shared across gateways,
// and must be deterministic — any randomness has to derive from the ids
// already present in the events, never from an internal Rng.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "radio/transmission.hpp"

namespace alphawan {

// Everything GatewayRadio exposes to a capture policy about one window:
// per-event columns over every transmission the front-end observed
// (including foreign-network and never-detected ones — their RF energy
// shaped the outcomes). Columnar rather than a vector<RxEvent> so the
// radio can hand policies the per-event scratch columns it already filled
// instead of materializing wide RxEvent structs per (gateway, window).
struct CaptureContext {
  std::size_t count = 0;                   // events this window
  const Seconds* start = nullptr;          // tx start time
  const Seconds* end = nullptr;            // tx end (start + time_on_air)
  const Channel* channel = nullptr;        // tx channel
  const SpreadingFactor* sf = nullptr;     // tx spreading factor
  const NodeId* node = nullptr;            // transmitting node
  const std::uint16_t* tx_sync = nullptr;  // per-tx sync word
  // The gateway's network sync word: a rescued packet is kDelivered only
  // if its sync word matches, kDecodedForeign otherwise.
  std::uint16_t sync_word = 0;
  // Decoder-pool capacity of this gateway (diagnostic; the budget itself
  // is enforced by the outcome contract above).
  int decoders = 0;
};

class CapturePolicy {
 public:
  virtual ~CapturePolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // Rewrite reception outcomes (one per event, same order) for one
  // gateway window. Called at the end of GatewayRadio::process_into, so
  // rescued deliveries flow through the normal uplink-forwarding path.
  virtual void resolve(const CaptureContext& context,
                       std::vector<RxOutcome>& outcomes) const = 0;

 protected:
  CapturePolicy() = default;
  CapturePolicy(const CapturePolicy&) = default;
  CapturePolicy& operator=(const CapturePolicy&) = default;
};

}  // namespace alphawan
