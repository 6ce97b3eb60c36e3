#include "baselines/standard_lorawan.hpp"

#include <algorithm>
#include <cmath>

#include "phy/sensitivity.hpp"

namespace alphawan {

StandardLorawanPolicy::StandardLorawanPolicy(StandardLorawanOptions options)
    : options_(options) {
  const AdrConfig& adr = options_.adr;
  require_option(adr.min_tx_power <= kDefaultTxPower,
                 "StandardLorawanOptions: adr.min_tx_power must be <= "
                 "kDefaultTxPower, the ADR power ceiling");
  require_option(std::isfinite(adr.installation_margin.value()),
                 "StandardLorawanOptions: adr.installation_margin must be "
                 "finite");
}

void StandardLorawanPolicy::configure(Deployment& deployment,
                                      Network& network, Rng& rng) const {
  const StandardLorawanOptions& options = options_;
  const Spectrum& spectrum = deployment.spectrum();

  // Gateways: homogeneous standard plans.
  std::vector<GatewayId> gw_ids;
  gw_ids.reserve(network.gateways().size());
  for (const auto& gw : network.gateways()) gw_ids.push_back(gw.id());
  NetworkChannelConfig config = homogeneous_standard_config(
      spectrum, gw_ids, options.spread_gateways_across_plans);

  if (!options.configure_nodes) {
    network.apply_config(config);
    return;
  }

  // Nodes: random channel among those the network's gateways actually
  // monitor (users join the operator's channel plan); DR0 without ADR, or
  // the greedy standard-ADR data rate with ADR.
  std::vector<Channel> channels;
  for (const auto& [gw_id, gw_cfg] : config.gateways) {
    for (const auto& ch : gw_cfg.channels) {
      if (std::find(channels.begin(), channels.end(), ch) == channels.end()) {
        channels.push_back(ch);
      }
    }
  }
  if (channels.empty()) channels = spectrum.grid_channels();
  for (auto& node : network.nodes()) {
    NodeRadioConfig cfg = node.config();
    cfg.channel = channels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(channels.size()) - 1))];
    cfg.tx_power = kDefaultTxPower;
    if (options.use_adr) {
      // Emulate converged standard ADR: best mean SNR across gateways,
      // then step DR up / power down with the installation margin.
      Db best{-1e9};
      for (const auto& gw : network.gateways()) {
        best = std::max(best, deployment.mean_snr(node, gw));
      }
      cfg.dr = DataRate::kDR0;
      cfg = standard_adr(cfg, best, options.adr);
    } else {
      cfg.dr = DataRate::kDR0;  // join default: maximum range
    }
    config.nodes[node.id()] = cfg;
  }
  network.apply_config(config);
}

}  // namespace alphawan
