// Greedy constructive heuristic for the CP problem: balances per-channel
// decoder capacity across gateways (Strategies 1+2) and spreads nodes over
// (gateway, channel, data-rate) slots (Strategy 7). Used to seed the
// evolutionary solver and as a fast anytime fallback.
#pragma once

#include <optional>

#include "core/cp_problem.hpp"

namespace alphawan {

// The channel count greedy_seed gives `gw`, clamped to what the gateway
// and the grid allow (clamp_width). `forced_width` forces a count on
// every gateway (Strategy 1 disabled -> 8); nullopt chooses ~decoders/6
// channels per gateway. `forced_width` reaches the seed only through these
// counts: two that give every gateway the same count give the same seed.
[[nodiscard]] int greedy_width(const CpGateway& gw, int num_channels,
                               std::optional<int> forced_width);

[[nodiscard]] CpSolution greedy_seed(
    const CpInstance& instance, std::optional<int> forced_width = std::nullopt);

}  // namespace alphawan
