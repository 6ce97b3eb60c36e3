#include "core/controller.hpp"

#include <algorithm>
#include <stdexcept>

namespace alphawan {

UpgradeReport AlphaWanController::upgrade(
    Network& network, const Spectrum& spectrum, const LinkEstimates& links,
    const std::map<NodeId, double>& traffic, MasterNode* master) {
  UpgradeReport report;

  // ---- inter-network channel planning (Strategy 8) --------------------
  Hz offset{0.0};
  if (config_.strategy8_spectrum_sharing) {
    if (master == nullptr) {
      throw std::invalid_argument(
          "AlphaWanController: spectrum sharing enabled but no Master");
    }
    // Register + plan request: two request/response WAN exchanges.
    master->handle_register(network.id());
    report.master_communication += latency_.master_round_trip();
    const PlanAssignMsg assign =
        master->handle_plan_request(network.id(), spectrum.grid_size());
    report.master_communication += latency_.master_round_trip();
    offset = assign.frequency_offset;
    report.overlap_ratio = assign.overlap_ratio;
  }
  report.frequency_offset = offset;

  // ---- intra-network channel planning ---------------------------------
  IntraPlanner planner(config_.planner);
  PlanOutcome outcome = planner.plan(network, spectrum, links, traffic, offset);
  report.cp_solve = outcome.solve_seconds;
  report.eval = outcome.eval;
  report.ga_gain = outcome.ga_gain;

  // ---- config distribution + reboot ------------------------------------
  const NetworkChannelConfig current = network.current_config();
  report.delta = diff_config(current, outcome.config);
  // Config pushes to gateways happen sequentially over the backhaul; the
  // per-gateway payload is small (a channel list). Reboots run in
  // parallel, so the reboot component is the slowest gateway.
  Seconds max_reboot{0.0};
  for (const auto& [gw_id, gw_cfg] : outcome.config.gateways) {
    const Gateway* gw = network.find_gateway(gw_id);
    if (gw == nullptr) continue;
    const bool changed =
        !(GatewayChannelConfig{gw->channels()} == gw_cfg);
    if (!changed) continue;
    report.config_distribution +=
        latency_.config_push(64 + 16 * gw_cfg.channels.size());
    max_reboot = std::max(max_reboot, latency_.gateway_reboot());
  }
  report.gateway_reboot = max_reboot;
  // Node settings travel as piggybacked LinkADRReq MAC commands on normal
  // downlink windows; they do not suspend the network, so Fig. 17 does not
  // count them. We still account a negligible serialization cost.
  report.config_distribution +=
      Seconds{1e-6 * static_cast<double>(outcome.config.nodes.size())};

  network.apply_config(outcome.config);
  return report;
}

}  // namespace alphawan
