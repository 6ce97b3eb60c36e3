#include "core/intra_planner.hpp"

#include <algorithm>

#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

// SNR headroom required when declaring a (node, gateway, level)
// combination reachable.
constexpr Db kReachMargin{3.0};

// Smallest level at which a node reaches a gateway given measured SNR.
std::uint8_t min_reach_level(Db measured_snr, Dbm measured_power) {
  for (int level = 0; level < kNumLevels; ++level) {
    const DataRate dr = level_to_dr(level);
    const Db snr_at_level =
        measured_snr + (level_tx_power(level) - measured_power);
    if (snr_at_level >= demod_snr_threshold(dr_to_sf(dr)) + kReachMargin) {
      return static_cast<std::uint8_t>(level);
    }
  }
  return kUnreachable;
}

}  // namespace

CpInstance IntraPlanner::build_instance(
    const Network& network, const Spectrum& spectrum,
    const LinkEstimates& links,
    const std::map<NodeId, double>& traffic) const {
  CpInstance instance;
  instance.spectrum = spectrum;
  instance.num_channels = spectrum.grid_size();
  instance.pair_capacity.assign(kNumDataRates, config_.pair_capacity);

  for (const auto& gw : network.gateways()) {
    CpGateway cp_gw;
    cp_gw.id = gw.id();
    cp_gw.decoders = gw.profile().decoders;
    cp_gw.max_channels = gw.profile().data_rx_chains;
    cp_gw.max_span_channels = std::max(
        1, static_cast<int>(gw.profile().rx_spectrum / kChannelSpacing));
    instance.gateways.push_back(cp_gw);
  }

  for (const auto& node : network.nodes()) {
    const auto link_it = links.nodes.find(node.id());
    if (link_it == links.nodes.end()) continue;  // never heard: skip
    CpNode cp_node;
    cp_node.id = node.id();
    const auto traffic_it = traffic.find(node.id());
    cp_node.traffic = traffic_it == traffic.end() ? 1.0 : traffic_it->second;
    cp_node.min_level.assign(instance.gateways.size(), kUnreachable);
    for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
      const auto snr_it =
          link_it->second.gateway_snr.find(instance.gateways[j].id);
      if (snr_it == link_it->second.gateway_snr.end()) continue;
      cp_node.min_level[j] =
          min_reach_level(snr_it->second, link_it->second.observed_tx_power);
    }
    instance.nodes.push_back(std::move(cp_node));
  }
  return instance;
}

CpSolution IntraPlanner::snapshot_solution(const Network& network,
                                           const CpInstance& instance) const {
  CpSolution solution = CpSolution::empty_for(instance);
  // Gateways: map current channels to grid indices.
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    const Gateway* gw = network.find_gateway(instance.gateways[j].id);
    auto& chans = solution.gateway_channels[j];
    if (gw != nullptr) {
      for (const auto& ch : gw->channels()) {
        const int idx = instance.spectrum.nearest_grid_index(ch.center);
        if (idx >= 0 && idx < instance.num_channels) chans.push_back(idx);
      }
    }
    if (chans.empty()) chans.push_back(0);
  }
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    const EndNode* node = network.find_node(instance.nodes[i].id);
    if (node == nullptr) continue;
    const int idx =
        instance.spectrum.nearest_grid_index(node->config().channel.center);
    solution.node_channel[i] =
        std::clamp(idx, 0, instance.num_channels - 1);
    solution.node_level[i] = dr_to_level(node->config().dr);
  }
  repair(instance, solution);
  return solution;
}

PlanOutcome IntraPlanner::plan(const Network& network, const Spectrum& spectrum,
                               const LinkEstimates& links,
                               const std::map<NodeId, double>& traffic,
                               Hz frequency_offset) const {
  PlanOutcome outcome;
  outcome.instance = build_instance(network, spectrum, links, traffic);

  GaConfig ga = config_.ga;
  if (!config_.strategy1_adapt_channel_count) {
    // Strategy 1 disabled: every gateway keeps the standard 8 channels.
    ga.forced_channel_count = 8;
  }
  if (!config_.strategy7_node_side) {
    ga.frozen_nodes =
        FrozenNodes{snapshot_solution(network, outcome.instance)};
  }

  const MonotonicClock& clock =
      config_.clock != nullptr ? *config_.clock : steady_process_clock();
  const Seconds start = clock.now();
  GaResult result = solve_cp(outcome.instance, ga);
  outcome.solve_seconds = clock.now() - start;
  outcome.eval = result.best_eval;
  outcome.ga_generations = result.generations_run;
  outcome.ga_gain = result.ga_gain();
  outcome.config =
      to_network_config(outcome.instance, result.best, frequency_offset);

  // Node-side steering disabled: do not touch node settings at all.
  if (!config_.strategy7_node_side) outcome.config.nodes.clear();
  return outcome;
}

LinkEstimates oracle_link_estimates(Deployment& deployment,
                                    const Network& network) {
  LinkEstimates links;
  for (const auto& node : network.nodes()) {
    LinkEstimates::NodeLinks entry;
    entry.observed_tx_power = node.config().tx_power;
    entry.packets = 1;
    for (const auto& gw : network.gateways()) {
      const Db snr = deployment.mean_snr(node, gw);
      // Only links that could ever be heard (SF12 threshold, generous
      // margin) enter the estimate — matching what logs can contain.
      if (snr >= demod_snr_threshold(SpreadingFactor::kSF12) - Db{3.0}) {
        entry.gateway_snr[gw.id()] = snr;
      }
    }
    if (!entry.gateway_snr.empty()) {
      links.nodes.emplace(node.id(), std::move(entry));
    }
  }
  return links;
}

std::map<NodeId, double> uniform_traffic(const Network& network,
                                         double packets_per_window) {
  std::map<NodeId, double> traffic;
  for (const auto& node : network.nodes()) {
    traffic[node.id()] = packets_per_window;
  }
  return traffic;
}

}  // namespace alphawan
