// Baseline: standard LoRaWAN operation. Gateways are uniformly configured
// from the standard channel plans (homogeneous reception — the paper's
// root inefficiency); nodes pick random channels; data rates come either
// from the default long-range setting (ADR off) or from the greedy
// standard ADR (ADR on).
#pragma once

#include "baselines/policy.hpp"
#include "net/adr.hpp"
#include "sim/topology.hpp"

namespace alphawan {

struct StandardLorawanOptions {
  bool use_adr = true;
  // Spread gateways across the available standard plans (operators with
  // more gateways than one plan covers do this for spectrum coverage).
  bool spread_gateways_across_plans = true;
  // When false, only the gateway side is provisioned and existing node
  // configs are kept — for experiments (fig12) that pre-assign node
  // channels/DRs themselves and only want the scheme's gateway plan.
  bool configure_nodes = true;
  AdrConfig adr{};
};

// Registry schemes "standard" / "standard-no-adr": the way commercial
// operators run LoRaWAN today. Node data rates use deployment geometry as
// a stand-in for the ADR feedback loop (the strongest-gateway SNR standard
// ADR would converge to).
class StandardLorawanPolicy final : public NodeMacPolicy {
 public:
  // Throws std::invalid_argument naming the field on an adr.min_tx_power
  // above kDefaultTxPower (the ADR power ceiling) or a non-finite
  // adr.installation_margin.
  explicit StandardLorawanPolicy(StandardLorawanOptions options = {});

  [[nodiscard]] std::string_view name() const override {
    return options_.use_adr ? "standard" : "standard-no-adr";
  }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override;

  [[nodiscard]] const StandardLorawanOptions& options() const {
    return options_;
  }

 private:
  StandardLorawanOptions options_;
};

}  // namespace alphawan
