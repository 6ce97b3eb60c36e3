// Standard LoRaWAN Adaptive Data Rate (the TTN/ChirpStack algorithm): from
// the best SNR a node's uplinks achieved, raise the data rate as far as the
// link margin allows, then step transmit power down.
//
// This is the paper's Strategy 5 baseline: it shrinks cells (fewer gateways
// per user — Fig. 6a-c) but aggressively pushes nodes to DR5, skewing
// data-rate usage (Fig. 6d/6e) and under-using the orthogonal-SF capacity
// of each channel. AlphaWAN's Strategy 7 replaces the greedy DR choice
// with capacity-aware joint planning.
#pragma once

#include "net/channel_plan.hpp"

namespace alphawan {

struct AdrConfig {
  // Safety margin subtracted from the measured SNR before stepping
  // (device margin / fading allowance). TTN default: 10 dB... the paper's
  // local deployment behaves closer to 7.
  Db installation_margin{8.0};
  // Lowest power the margin may step a node down to. Backing off never
  // raises power above kDefaultTxPower.
  Dbm min_tx_power{2.0};
};

// Compute the standard-ADR radio settings for one node given the best SNR
// observed across gateways at the node's *current* settings. Keeps the
// node's channel.
[[nodiscard]] NodeRadioConfig standard_adr(const NodeRadioConfig& current,
                                           Db best_snr,
                                           const AdrConfig& adr = {});

}  // namespace alphawan
