// Greedy constructive heuristic for the CP problem: balances per-channel
// decoder capacity across gateways (Strategies 1+2) and spreads nodes over
// (gateway, channel, data-rate) slots (Strategy 7). Used to seed the
// evolutionary solver and as a fast anytime fallback.
#pragma once

#include <optional>

#include "core/cp_problem.hpp"

namespace alphawan {

struct GreedyOptions {
  // Force every gateway to operate exactly this many channels (Strategy 1
  // disabled -> 8). nullopt: choose ~decoders/6 channels per gateway.
  std::optional<int> forced_channel_count;
};

// The channel count greedy_seed gives `gw`, clamped to what the gateway
// and the grid allow. The options reach the seed only through these
// widths: two options with the same width for every gateway give the same
// seed.
[[nodiscard]] int greedy_width(const CpGateway& gw, int num_channels,
                               const GreedyOptions& options);

[[nodiscard]] CpSolution greedy_seed(const CpInstance& instance,
                                     const GreedyOptions& options = {});

}  // namespace alphawan
