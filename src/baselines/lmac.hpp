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

struct LmacOptions {
  // Maximum total deferral before a node gives up waiting and transmits
  // anyway (regulatory/application latency bound).
  Seconds max_defer{5.0};
  // Random inter-frame gap inserted after a busy channel clears.
  Seconds min_gap{5e-3};
  Seconds max_gap{30e-3};
  // Carrier sensing range: transmitters farther apart than this cannot
  // hear each other (hidden terminals persist, as in real LMAC).
  Meters sense_range{1500.0};
};

// Registry scheme "lmac": standard-LoRaWAN provisioning (node_side) plus
// carrier-sense deferral applied to every window's schedule.
class LmacPolicy final : public NodeMacPolicy {
 public:
  // Throws std::invalid_argument naming the field on a negative
  // max_defer, min_gap or sense_range, or min_gap > max_gap.
  explicit LmacPolicy(LmacOptions options = {},
                      StandardLorawanOptions node_side = {});

  [[nodiscard]] std::string_view name() const override { return "lmac"; }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override {
    StandardLorawanPolicy(node_side_).configure(deployment, network, rng);
  }
  [[nodiscard]] std::vector<Transmission> shape_window(
      std::vector<Transmission> txs, Rng& rng) const override;

  [[nodiscard]] const LmacOptions& options() const { return options_; }

 private:
  LmacOptions options_;
  StandardLorawanOptions node_side_;
};

}  // namespace alphawan
