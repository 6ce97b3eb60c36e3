// Network-level channel configuration: the artifact AlphaWAN's planners
// produce. The simulator applies it directly through Network::apply_config;
// Fig. 17 charges the gateway config push and node MAC commands as costs
// (AlphaWanController::upgrade) rather than running either protocol.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "phy/band_plan.hpp"
#include "phy/lora_params.hpp"
#include "phy/sensitivity.hpp"
#include "radio/profiles.hpp"

namespace alphawan {

// Radio settings assigned to one end node.
struct NodeRadioConfig {
  Channel channel{};
  DataRate dr = DataRate::kDR0;
  Dbm tx_power = kDefaultTxPower;

  friend bool operator==(const NodeRadioConfig&,
                         const NodeRadioConfig&) = default;
};

// Operating channels assigned to one gateway.
struct GatewayChannelConfig {
  std::vector<Channel> channels;

  friend bool operator==(const GatewayChannelConfig&,
                         const GatewayChannelConfig&) = default;
};

// Complete channel plan for one network.
struct NetworkChannelConfig {
  std::map<GatewayId, GatewayChannelConfig> gateways;
  std::map<NodeId, NodeRadioConfig> nodes;
};

// How much of a new configuration differs from the current one — drives
// the Fig. 17 latency model (each changed gateway reboots; each changed
// node receives a LinkADRReq downlink).
struct ConfigDelta {
  std::size_t gateways_changed = 0;
  std::size_t nodes_changed = 0;
};

[[nodiscard]] ConfigDelta diff_config(const NetworkChannelConfig& current,
                                      const NetworkChannelConfig& proposed);

// Validate a gateway channel assignment against a hardware profile
// (channel count <= Rx chains, span <= radio bandwidth). Returns false
// with no side effects rather than throwing — planners use this as a
// feasibility predicate.
[[nodiscard]] bool valid_for_profile(const GatewayChannelConfig& config,
                                     const GatewayProfile& profile);

// Build the standard-LoRaWAN homogeneous configuration: gateway j uses
// standard plan (j mod num_plans); nodes keep their current channels.
[[nodiscard]] NetworkChannelConfig homogeneous_standard_config(
    const Spectrum& spectrum, const std::vector<GatewayId>& gateways,
    bool spread_across_plans = true);

}  // namespace alphawan
