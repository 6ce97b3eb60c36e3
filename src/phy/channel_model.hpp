// Urban radio propagation: log-distance path loss with log-normal
// shadowing. Substitutes the paper's 2.1 km x 1.6 km urban testbed
// (outdoor/indoor/blockage mix) — see DESIGN.md section 2.
//
// Shadowing is frozen per (transmitter, receiver) pair: the draw is a pure
// function of (config seed, tx id, rx id), and the model itself memoizes
// nothing. That keeps a given deployment's link qualities stable across a
// run — matching the paper's static testbed — while the model holds no
// per-link state, so its memory stays O(1) no matter how many links a
// city-scale world probes (docs/sharding.md). Fast fading is drawn per
// packet. The LinkCache (phy/link_cache.hpp) keeps what hot paths revisit:
// the composite static terms of every resident link, and per slice the
// geometry (mean path loss, antenna gain) of the origin probed last, so
// co-located emulated users cost one shadowing draw per link.
#pragma once

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "phy/lora_params.hpp"

namespace alphawan {

struct ChannelModelConfig {
  Db shadowing_sigma_db{4.0};  // per-link, frozen
  Db fast_fading_sigma_db{1.0};  // per-packet
  std::uint64_t seed = 1;
};

class ChannelModel {
 public:
  explicit ChannelModel(ChannelModelConfig config = {});

  // Deterministic mean path loss at a distance: log-distance with the
  // dense-urban 900 MHz parameters in channel_model.cpp.
  [[nodiscard]] Db mean_path_loss(Meters dist) const;

  // This link's frozen shadowing term. Links are keyed by (tx_id, rx_id)
  // chosen by the caller (node id, gateway id).
  [[nodiscard]] Db shadowing(std::uint64_t tx_id, std::uint64_t rx_id) const;

  // Path loss including the link's frozen shadowing term:
  // mean_path_loss(dist) + shadowing(tx_id, rx_id). A caller that already
  // holds mean_path_loss(dist) may add shadowing itself, bit for bit.
  [[nodiscard]] Db link_path_loss(std::uint64_t tx_id, std::uint64_t rx_id,
                                  Meters dist) const;

  // Received power for a transmission, with per-packet fast fading.
  [[nodiscard]] Dbm received_power(std::uint64_t tx_id, std::uint64_t rx_id,
                                   Meters dist, Dbm tx_power,
                                   Rng& packet_rng) const;

  // Mean SNR of a link (no fast fading) — what ADR and planners estimate
  // from history.
  [[nodiscard]] Db mean_link_snr(std::uint64_t tx_id, std::uint64_t rx_id,
                                 Meters dist, Dbm tx_power,
                                 Hz bandwidth = kLoRaBandwidth125k) const;

  [[nodiscard]] const ChannelModelConfig& config() const { return config_; }

 private:
  ChannelModelConfig config_;
  std::uint64_t shadow_seed_;
};

}  // namespace alphawan
