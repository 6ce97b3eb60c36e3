// Baseline: randomized channel planning (paper Sec. 5.1.1). Follows
// Strategy 1 — each gateway operates a reduced, random number of channels
// — but picks the channels at random instead of optimizing coverage, and
// leaves the node side to standard ADR. Isolates how much of AlphaWAN's
// gain comes from optimization rather than from merely diversifying.
#pragma once

#include "baselines/standard_lorawan.hpp"
#include "sim/topology.hpp"

namespace alphawan {

// Registry scheme "random-cp": standard-ADR node side (unless
// node_side.configure_nodes is false), random contiguous gateway channel
// windows, nodes re-homed onto monitored channels.
class RandomCpPolicy final : public NodeMacPolicy {
 public:
  explicit RandomCpPolicy(StandardLorawanOptions node_side = {})
      : node_side_(node_side) {}

  [[nodiscard]] std::string_view name() const override { return "random-cp"; }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override;

 private:
  StandardLorawanOptions node_side_;
};

}  // namespace alphawan
