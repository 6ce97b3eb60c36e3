// The paper's own system, packaged as a registry scheme so the eval grid
// treats it like any other baseline: standard provisioning first (the
// state every operator starts from), then the AlphaWAN capacity-upgrade
// pipeline (intra-network CP solve + config distribution) re-plans the
// network. No capture-side policy — AlphaWAN runs on stock COTS gateways;
// that is the point of the paper.
#pragma once

#include "baselines/standard_lorawan.hpp"
#include "core/controller.hpp"

namespace alphawan {

struct AlphaWanBaselineOptions {
  AlphaWanConfig controller{};
  // Per-node traffic demand handed to the CP solver, in offered airtime
  // utilization (Erlangs). Benches scale this with the emulated user count
  // (fig13: users_per_node * utilization).
  double demand_per_node = 0.005;

  AlphaWanBaselineOptions() {
    // Registry default: a single-network upgrade with no Master in the
    // loop (strategy 8 needs one; benches that want it construct the
    // controller themselves).
    controller.strategy8_spectrum_sharing = false;
  }
};

class AlphaWanPolicy final : public NodeMacPolicy {
 public:
  // Throws std::invalid_argument naming the field on a negative or
  // non-finite demand_per_node, an invalid controller.planner.ga (see
  // validate(const GaConfig&)) or bad node_side options.
  explicit AlphaWanPolicy(AlphaWanBaselineOptions options = {},
                          StandardLorawanOptions node_side = {});

  [[nodiscard]] std::string_view name() const override { return "alphawan"; }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override;

  [[nodiscard]] const AlphaWanBaselineOptions& options() const {
    return options_;
  }

 private:
  AlphaWanBaselineOptions options_;
  StandardLorawanPolicy node_side_;
};

}  // namespace alphawan
