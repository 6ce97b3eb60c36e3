#include "net/channel_plan.hpp"

#include <algorithm>

namespace alphawan {

ConfigDelta diff_config(const NetworkChannelConfig& current,
                        const NetworkChannelConfig& proposed) {
  ConfigDelta delta;
  for (const auto& [gw, cfg] : proposed.gateways) {
    const auto it = current.gateways.find(gw);
    if (it == current.gateways.end() || !(it->second == cfg)) {
      ++delta.gateways_changed;
    }
  }
  for (const auto& [node, cfg] : proposed.nodes) {
    const auto it = current.nodes.find(node);
    if (it == current.nodes.end() || !(it->second == cfg)) {
      ++delta.nodes_changed;
    }
  }
  return delta;
}

bool valid_for_profile(const GatewayChannelConfig& config,
                       const GatewayProfile& profile) {
  if (config.channels.empty()) return false;
  if (static_cast<int>(config.channels.size()) > profile.data_rx_chains) {
    return false;
  }
  return channel_span(config.channels) <= profile.rx_spectrum + Hz{1.0};
}

NetworkChannelConfig homogeneous_standard_config(
    const Spectrum& spectrum, const std::vector<GatewayId>& gateways,
    bool spread_across_plans) {
  NetworkChannelConfig config;
  const int plans = std::max(1, num_standard_plans(spectrum));
  int next_plan = 0;
  for (const GatewayId gw : gateways) {
    const int plan_index = spread_across_plans ? (next_plan++ % plans) : 0;
    config.gateways[gw] =
        GatewayChannelConfig{standard_plan(spectrum, plan_index).channels};
  }
  return config;
}

}  // namespace alphawan
