// Baseline: LMAC-style carrier-sense MAC for LoRa (Gamage et al.,
// SIGCOMM'20). Nodes perform channel-activity detection before
// transmitting and defer while their channel is busy, trading latency for
// fewer RF collisions. Decoder contention is untouched — which is exactly
// why LMAC saturates at ~6k users in Fig. 13.
#pragma once

#include <vector>

#include "baselines/standard_lorawan.hpp"
#include "common/rng.hpp"
#include "radio/transmission.hpp"

namespace alphawan {

// Registry scheme "lmac": standard-LoRaWAN provisioning (node_side) plus
// carrier-sense deferral applied to every window's schedule.
class LmacPolicy final : public NodeMacPolicy {
 public:
  explicit LmacPolicy(StandardLorawanOptions node_side = {})
      : node_side_(node_side) {}

  [[nodiscard]] std::string_view name() const override { return "lmac"; }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override {
    StandardLorawanPolicy(node_side_).configure(deployment, network, rng);
  }
  [[nodiscard]] std::vector<Transmission> shape_window(
      std::vector<Transmission> txs, Rng& rng) const override;

 private:
  StandardLorawanOptions node_side_;
};

}  // namespace alphawan
