#include "baselines/random_cp.hpp"

#include <algorithm>

namespace alphawan {
namespace {

// Range of the random channel count each gateway operates.
constexpr int kMinChannelsPerGateway = 2;
constexpr int kMaxChannelsPerGateway = 4;

}  // namespace

void RandomCpPolicy::configure(Deployment& deployment, Network& network,
                               Rng& rng) const {
  // Node side behaves like a standard ADR network (skipped entirely when
  // the caller pre-assigned node configs — fig12's orthogonalized users).
  const bool touch_nodes = node_side_.configure_nodes;
  if (touch_nodes) {
    StandardLorawanOptions std_options = node_side_;
    std_options.use_adr = true;
    StandardLorawanPolicy(std_options).configure(deployment, network, rng);
  }

  // Gateway side: random contiguous windows of random width.
  const Spectrum& spectrum = deployment.spectrum();
  NetworkChannelConfig config;
  for (const auto& gw : network.gateways()) {
    const int max_span = std::max(
        1, static_cast<int>(gw.profile().rx_spectrum / kChannelSpacing));
    int width = static_cast<int>(
        rng.uniform_int(kMinChannelsPerGateway, kMaxChannelsPerGateway));
    width = std::clamp(width, 1,
                       std::min({gw.profile().data_rx_chains, max_span,
                                 spectrum.grid_size()}));
    const int start = static_cast<int>(
        rng.uniform_int(0, spectrum.grid_size() - width));
    GatewayChannelConfig gw_cfg;
    for (int c = start; c < start + width; ++c) {
      gw_cfg.channels.push_back(spectrum.grid_channel(c));
    }
    config.gateways[gw.id()] = std::move(gw_cfg);
  }
  network.apply_config(config);

  if (!touch_nodes) return;

  // Re-home nodes onto channels some gateway actually monitors (an
  // operator rolling out new gateway plans pushes matching channel masks
  // to its devices); data rates keep their ADR settings.
  std::vector<Channel> monitored;
  for (const auto& [gw_id, gw_cfg] : config.gateways) {
    for (const auto& ch : gw_cfg.channels) {
      if (std::find(monitored.begin(), monitored.end(), ch) ==
          monitored.end()) {
        monitored.push_back(ch);
      }
    }
  }
  for (auto& node : network.nodes()) {
    NodeRadioConfig cfg = node.config();
    cfg.channel = monitored[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(monitored.size()) - 1))];
    node.apply_config(cfg);
  }
}

}  // namespace alphawan
