#include "baselines/alphawan_policy.hpp"

#include <cmath>

namespace alphawan {

AlphaWanPolicy::AlphaWanPolicy(AlphaWanBaselineOptions options,
                               StandardLorawanOptions node_side)
    : options_(options), node_side_(node_side) {
  require_option(std::isfinite(options_.demand_per_node) &&
                     options_.demand_per_node >= 0.0,
                 "AlphaWanBaselineOptions: demand_per_node must be finite and "
                 ">= 0");
  validate(options_.controller.planner.ga);
}

void AlphaWanPolicy::configure(Deployment& deployment, Network& network,
                               Rng& rng) const {
  // Start from the commercial status quo AlphaWAN upgrades in the field.
  node_side_.configure(deployment, network, rng);

  // The latency model's jitter stream derives from the caller's root seed
  // (keyed substream), so the whole upgrade replays with the experiment.
  LatencyModel latency{LatencyModelConfig{},
                       rng.substream("alphawan-latency").root_seed()};
  AlphaWanController controller(options_.controller, latency);
  const LinkEstimates links = oracle_link_estimates(deployment, network);
  const std::map<NodeId, double> traffic =
      uniform_traffic(network, options_.demand_per_node);
  (void)controller.upgrade(network, deployment.spectrum(), links, traffic);
}

}  // namespace alphawan
