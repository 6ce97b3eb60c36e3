#include "net/network.hpp"

#include <algorithm>

namespace alphawan {

Network::Network(NetworkId id, std::string name)
    : id_(id),
      name_(std::move(name)),
      sync_word_(sync_word_for_network(id)),
      server_(id) {}

Gateway& Network::add_gateway(GatewayId id, Point position,
                              const GatewayProfile& profile) {
  gateways_.emplace_back(id, id_, position, profile, sync_word_);
  return gateways_.back();
}

EndNode& Network::add_node(NodeId id, Point position,
                           const NodeRadioConfig& config) {
  nodes_.emplace_back(id, id_, position, config);
  node_index_.try_emplace(id, nodes_.size() - 1);
  return nodes_.back();
}

Gateway* Network::find_gateway(GatewayId id) {
  const auto it =
      std::find_if(gateways_.begin(), gateways_.end(),
                   [&](const Gateway& gw) { return gw.id() == id; });
  return it == gateways_.end() ? nullptr : &*it;
}

EndNode* Network::find_node(NodeId id) {
  const auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : &nodes_[it->second];
}

const Gateway* Network::find_gateway(GatewayId id) const {
  return const_cast<Network*>(this)->find_gateway(id);
}

const EndNode* Network::find_node(NodeId id) const {
  return const_cast<Network*>(this)->find_node(id);
}

void Network::apply_config(const NetworkChannelConfig& config) {
  for (const auto& [gw_id, gw_cfg] : config.gateways) {
    if (Gateway* gw = find_gateway(gw_id)) gw->apply_channels(gw_cfg);
  }
  for (const auto& [node_id, node_cfg] : config.nodes) {
    if (EndNode* node = find_node(node_id)) node->apply_config(node_cfg);
  }
}

NetworkChannelConfig Network::current_config() const {
  NetworkChannelConfig config;
  for (const auto& gw : gateways_) {
    config.gateways[gw.id()] = GatewayChannelConfig{gw.channels()};
  }
  for (const auto& node : nodes_) {
    config.nodes[node.id()] = node.config();
  }
  return config;
}

}  // namespace alphawan
