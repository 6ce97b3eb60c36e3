#include "core/cp_solution.hpp"

namespace alphawan {

Dbm level_tx_power(int level) {
  // Shorter levels can afford lower power; longer levels use the ladder's
  // upper rungs. Level 0 (DR5, short) -> 8 dBm ... level 5 (DR0) -> 14 dBm.
  static constexpr Dbm kPower[kNumLevels] = {Dbm{8.0},  Dbm{8.0},  Dbm{11.0},
                                             Dbm{11.0}, Dbm{14.0}, Dbm{14.0}};
  if (level < 0 || level >= kNumLevels) return kDefaultTxPower;
  return kPower[level];
}

NetworkChannelConfig to_network_config(const CpInstance& instance,
                                       const CpSolution& solution,
                                       Hz frequency_offset) {
  NetworkChannelConfig config;
  auto shifted = [&](int grid_index) {
    Channel ch = instance.spectrum.grid_channel(grid_index);
    ch.center += frequency_offset;
    return ch;
  };
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    GatewayChannelConfig gw_cfg;
    gw_cfg.channels.reserve(solution.gateway_channels[j].size());
    for (const auto c : solution.gateway_channels[j]) {
      gw_cfg.channels.push_back(shifted(c));
    }
    config.gateways[instance.gateways[j].id] = std::move(gw_cfg);
  }
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    NodeRadioConfig node_cfg;
    node_cfg.channel = shifted(solution.node_channel[i]);
    node_cfg.dr = level_to_dr(solution.node_level[i]);
    node_cfg.tx_power = level_tx_power(solution.node_level[i]);
    config.nodes[instance.nodes[i].id] = node_cfg;
  }
  return config;
}

}  // namespace alphawan
