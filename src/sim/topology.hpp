// Deployment: the complete simulated world — region, spectrum, propagation
// model, and one or more coexisting networks — plus placement helpers that
// mirror how the paper's testbed was provisioned.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "net/network.hpp"
#include "phy/band_plan.hpp"
#include "phy/channel_model.hpp"
#include "phy/link_cache.hpp"
#include "sim/shard.hpp"

namespace alphawan {

class Deployment {
 public:
  // Throws std::invalid_argument, naming the field, for a region side that
  // is not finite and positive, or a spectrum too narrow (or not finite)
  // to hold one grid channel.
  Deployment(Region region, Spectrum spectrum,
             ChannelModelConfig channel_config = {});

  [[nodiscard]] const Region& region() const { return region_; }
  [[nodiscard]] const Spectrum& spectrum() const { return spectrum_; }
  [[nodiscard]] ChannelModel& channel_model() { return channel_model_; }

  Network& add_network(const std::string& name);
  // Networks live in a deque: references returned by add_network stay
  // valid as more networks are added.
  [[nodiscard]] std::deque<Network>& networks() { return networks_; }
  [[nodiscard]] const std::deque<Network>& networks() const {
    return networks_;
  }

  // Globally unique id allocation across networks.
  [[nodiscard]] NodeId next_node_id() { return next_node_id_++; }
  [[nodiscard]] GatewayId next_gateway_id() { return next_gateway_id_++; }

  // Place `count` gateways on a jittered coverage grid, all running the
  // given profile, initially configured with standard plan #0. Returns
  // their ids.
  std::vector<GatewayId> place_gateways(Network& network, std::size_t count,
                                        const GatewayProfile& profile,
                                        Rng& rng);

  // Place `count` nodes uniformly at random with round-robin grid channels
  // and a data rate feasible for the node's nearest gateway (DR0 if weak).
  std::vector<NodeId> place_nodes(Network& network, std::size_t count,
                                  Rng& rng);

  // Lowest data rate is always feasible; pick the fastest DR whose demod
  // threshold the node's best mean gateway SNR clears with `margin` dB.
  [[nodiscard]] DataRate feasible_dr(const EndNode& node,
                                     const Network& network, Db margin = Db{5.0});

  // Mean link SNR between a node position and a gateway (deterministic
  // part + frozen shadowing; no fast fading).
  [[nodiscard]] Db mean_snr(const EndNode& node, const Gateway& gw);

  // The window-invariant link-gain matrix over this deployment's gateways,
  // partitioned into one LinkCache slice per spatial shard (sim/shard.hpp;
  // shards == 1 is the monolithic cache). Each call re-partitions if the
  // shard count changed and refreshes every gateway's column in its home
  // slice — newly placed gateways get a column, antenna swaps recompute
  // theirs. Transmitter rows are registered lazily by the runner as traffic
  // mentions them, and only in the slices where the node is audible.
  [[nodiscard]] ShardedLinkCache& shard_caches(int shards);

  // The stripe layout used to home gateways (and transmitters) to shards.
  [[nodiscard]] ShardLayout shard_layout(int shards) const {
    return ShardLayout(region_, shards);
  }

 private:
  Region region_;
  Spectrum spectrum_;
  ChannelModel channel_model_;
  ShardedLinkCache shard_caches_{channel_model_};
  std::deque<Network> networks_;
  NodeId next_node_id_ = 1;
  GatewayId next_gateway_id_ = 1;
  NetworkId next_network_id_ = 0;
};

}  // namespace alphawan
