// Baseline: randomized channel planning (paper Sec. 5.1.1). Follows
// Strategy 1 — each gateway operates a reduced, random number of channels
// — but picks the channels at random instead of optimizing coverage, and
// leaves the node side to standard ADR. Isolates how much of AlphaWAN's
// gain comes from optimization rather than from merely diversifying.
#pragma once

#include "baselines/standard_lorawan.hpp"
#include "sim/topology.hpp"

namespace alphawan {

struct RandomCpOptions {
  int min_channels_per_gateway = 2;
  int max_channels_per_gateway = 4;
};

// Registry scheme "random-cp": standard-ADR node side (unless
// node_side.configure_nodes is false), random contiguous gateway channel
// windows, nodes re-homed onto monitored channels.
class RandomCpPolicy final : public NodeMacPolicy {
 public:
  // Throws std::invalid_argument naming the field on
  // min_channels_per_gateway < 1 or min > max_channels_per_gateway.
  explicit RandomCpPolicy(RandomCpOptions options = {},
                          StandardLorawanOptions node_side = {});

  [[nodiscard]] std::string_view name() const override { return "random-cp"; }
  void configure(Deployment& deployment, Network& network,
                 Rng& rng) const override;

  [[nodiscard]] const RandomCpOptions& options() const { return options_; }

 private:
  RandomCpOptions options_;
  StandardLorawanOptions node_side_;
};

}  // namespace alphawan
