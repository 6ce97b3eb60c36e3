// A LoRaWAN end device: radio configuration, frame counter, duty-cycle
// accounting, and uplink generation.
#pragma once

#include <cstdint>

#include "common/geometry.hpp"
#include "net/channel_plan.hpp"
#include "net/sync_word.hpp"
#include "radio/transmission.hpp"

namespace alphawan {

class EndNode {
 public:
  EndNode(NodeId id, NetworkId network, Point position, NodeRadioConfig config);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] NetworkId network() const { return network_; }
  [[nodiscard]] const Point& position() const { return position_; }
  [[nodiscard]] const NodeRadioConfig& config() const { return config_; }
  [[nodiscard]] std::uint16_t fcnt() const { return fcnt_; }

  // Apply a new radio configuration (via ADR / AlphaWAN channel planning).
  void apply_config(const NodeRadioConfig& config) { config_ = config; }

  // Build the on-air transmission for an uplink starting at `start`.
  // Increments the frame counter and updates duty-cycle bookkeeping.
  [[nodiscard]] Transmission make_transmission(Seconds start,
                                               std::uint32_t payload_bytes,
                                               PacketId packet_id);

  // Duty-cycle gate: earliest instant a new transmission may start, given
  // the regulatory duty-cycle limit (e.g. 0.01 for 1%).
  [[nodiscard]] Seconds next_allowed_start(double duty_cycle_limit) const;

  // TxParams for the node's current data rate.
  [[nodiscard]] TxParams tx_params() const;

 private:
  NodeId id_;
  NetworkId network_;
  Point position_;
  NodeRadioConfig config_;
  std::uint16_t fcnt_ = 0;
  Seconds last_tx_end_{-1e18};
  Seconds last_tx_airtime_{0.0};
};

}  // namespace alphawan
