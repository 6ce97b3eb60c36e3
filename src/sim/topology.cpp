#include "sim/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

void require_finite_positive(Meters side, const char* field) {
  if (!(std::isfinite(side.value()) && side.value() > 0.0)) {
    throw std::invalid_argument(std::string(field) +
                                " must be finite and > 0 m, got " +
                                std::to_string(side.value()));
  }
}

Region validated(Region region) {
  require_finite_positive(region.width, "Region::width");
  require_finite_positive(region.height, "Region::height");
  return region;
}

Spectrum validated(Spectrum spectrum) {
  if (!(std::isfinite(spectrum.width.value()) &&
        spectrum.width >= kChannelSpacing)) {
    throw std::invalid_argument(
        "Spectrum::width must be finite and hold at least one 200 kHz grid "
        "channel, got " +
        std::to_string(spectrum.width.value()) + " Hz");
  }
  return spectrum;
}

}  // namespace

Deployment::Deployment(Region region, Spectrum spectrum,
                       ChannelModelConfig channel_config)
    : region_(validated(region)),
      spectrum_(validated(spectrum)),
      channel_model_(channel_config) {}

Network& Deployment::add_network(const std::string& name) {
  networks_.emplace_back(next_network_id_++, name);
  return networks_.back();
}

std::vector<GatewayId> Deployment::place_gateways(
    Network& network, std::size_t count, const GatewayProfile& profile,
    Rng& rng) {
  const auto positions = grid_placement(region_, count, rng);
  std::vector<GatewayId> ids;
  ids.reserve(count);
  const auto plan0 = standard_plan(spectrum_, 0);
  for (const auto& pos : positions) {
    const GatewayId id = next_gateway_id();
    auto& gw = network.add_gateway(id, pos, profile);
    gw.apply_channels(GatewayChannelConfig{plan0.channels});
    ids.push_back(id);
  }
  return ids;
}

ShardedLinkCache& Deployment::shard_caches(int shards) {
  const ShardLayout layout = shard_layout(shards);
  if (shard_caches_.shard_count() !=
      static_cast<std::size_t>(layout.shards())) {
    shard_caches_.reset(static_cast<std::size_t>(layout.shards()));
  }
  for (auto& network : networks_) {
    for (auto& gw : network.gateways()) {
      // Gateway positions are immutable, so a gateway's home slice is
      // stable for a given shard count.
      const auto home = static_cast<std::size_t>(layout.shard_of(gw.position()));
      shard_caches_.slice(home).upsert_gateway(
          gw.id(), kGatewayKeyBase + gw.id(), gw.position(),
          gw.antenna_epoch(),
          [&gw](const Point& origin) {
            return gw.antenna_gain_towards(origin);
          });
    }
  }
  return shard_caches_;
}

Db Deployment::mean_snr(const EndNode& node, const Gateway& gw) {
  const Meters dist = distance(node.position(), gw.position());
  return channel_model_.mean_link_snr(node.id(), kGatewayKeyBase + gw.id(),
                                      dist, node.config().tx_power) +
         gw.antenna_gain_towards(node.position());
}

DataRate Deployment::feasible_dr(const EndNode& node, const Network& network,
                                 Db margin) {
  Db best{-1e9};
  for (const auto& gw : network.gateways()) {
    best = std::max(best, mean_snr(node, gw));
  }
  const auto dr = best_data_rate_for_snr(best, margin);
  return dr.value_or(DataRate::kDR0);
}

std::vector<NodeId> Deployment::place_nodes(Network& network,
                                            std::size_t count, Rng& rng) {
  const auto positions = uniform_placement(region_, count, rng);
  const auto channels = spectrum_.grid_channels();
  std::vector<NodeId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId id = next_node_id();
    NodeRadioConfig cfg;
    cfg.channel = channels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(channels.size()) - 1))];
    cfg.tx_power = kDefaultTxPower;
    cfg.dr = DataRate::kDR0;
    auto& node = network.add_node(id, positions[i], cfg);
    cfg.dr = feasible_dr(node, network);
    node.apply_config(cfg);
    ids.push_back(id);
  }
  return ids;
}

}  // namespace alphawan
