// A complete LoRaWAN network: one operator's server, gateways, and
// subscribed end nodes, plus channel-plan application.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>

#include "net/adr.hpp"
#include "net/end_node.hpp"
#include "net/gateway.hpp"
#include "net/network_server.hpp"
#include "net/sync_word.hpp"

namespace alphawan {

class Network {
 public:
  Network(NetworkId id, std::string name);

  [[nodiscard]] NetworkId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint16_t sync_word() const { return sync_word_; }

  Gateway& add_gateway(GatewayId id, Point position,
                       const GatewayProfile& profile);
  EndNode& add_node(NodeId id, Point position, const NodeRadioConfig& config);

  // Devices live in deques so references returned by add_gateway/add_node
  // remain valid as the network grows. Add nodes through add_node only:
  // find_node answers from the index add_node keeps.
  [[nodiscard]] std::deque<Gateway>& gateways() { return gateways_; }
  [[nodiscard]] const std::deque<Gateway>& gateways() const {
    return gateways_;
  }
  [[nodiscard]] std::deque<EndNode>& nodes() { return nodes_; }
  [[nodiscard]] const std::deque<EndNode>& nodes() const { return nodes_; }
  [[nodiscard]] NetworkServer& server() { return server_; }
  [[nodiscard]] const NetworkServer& server() const { return server_; }

  [[nodiscard]] Gateway* find_gateway(GatewayId id);
  [[nodiscard]] EndNode* find_node(NodeId id);
  [[nodiscard]] const Gateway* find_gateway(GatewayId id) const;
  [[nodiscard]] const EndNode* find_node(NodeId id) const;

  // Apply a channel plan: reconfigure listed gateways and nodes. Entries
  // for unknown ids are ignored (they may belong to removed devices).
  void apply_config(const NetworkChannelConfig& config);

  // Snapshot of the currently applied configuration.
  [[nodiscard]] NetworkChannelConfig current_config() const;

 private:
  NetworkId id_;
  std::string name_;
  std::uint16_t sync_word_;
  NetworkServer server_;
  std::deque<Gateway> gateways_;
  std::deque<EndNode> nodes_;
  // Node id -> position in nodes_, filled by add_node. The first node
  // added with an id keeps it, as a front-to-back search would find.
  std::unordered_map<NodeId, std::size_t> node_index_;
};

}  // namespace alphawan
