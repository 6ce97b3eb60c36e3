#include "core/greedy_seed.hpp"

#include <algorithm>
#include <cmath>

namespace alphawan {

int greedy_width(const CpGateway& gw, int num_channels,
                 std::optional<int> forced_width) {
  return clamp_width(gw, num_channels,
                     forced_width.value_or(static_cast<int>(std::lround(
                         static_cast<double>(gw.decoders) / kNumDataRates))));
}

CpSolution greedy_seed(const CpInstance& instance,
                       std::optional<int> forced_width) {
  CpSolution solution = CpSolution::empty_for(instance);
  const std::size_t num_gw = instance.gateways.size();
  const int num_ch = instance.num_channels;

  // ---- gateway channel windows -------------------------------------
  // Per-channel accumulated decoder capacity; each new gateway takes the
  // contiguous window where coverage is thinnest.
  std::vector<double> channel_capacity(static_cast<std::size_t>(num_ch), 0.0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    const auto& gw = instance.gateways[j];
    const int width = greedy_width(gw, num_ch, forced_width);
    int best_start = 0;
    double best_score = 1e300;
    for (int start = 0; start + width <= num_ch; ++start) {
      double score = 0.0;
      for (int c = start; c < start + width; ++c) {
        score += channel_capacity[static_cast<std::size_t>(c)];
      }
      if (score < best_score) {
        best_score = score;
        best_start = start;
      }
    }
    auto& chans = solution.gateway_channels[j];
    chans.clear();
    const double per_channel =
        static_cast<double>(gw.decoders) / static_cast<double>(width);
    for (int c = best_start; c < best_start + width; ++c) {
      chans.push_back(c);
      channel_capacity[static_cast<std::size_t>(c)] += per_channel;
    }
  }

  // ---- node assignment ----------------------------------------------
  std::vector<double> gw_load(num_gw, 0.0);
  std::vector<double> pair_load(
      static_cast<std::size_t>(num_ch) * kNumDataRates, 0.0);

  // Nodes with fewer reachable gateways first (they are the constrained
  // ones); ties by heavier traffic first.
  std::vector<std::size_t> order(instance.nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<int> reach_count(instance.nodes.size(), 0);
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    for (std::size_t j = 0; j < num_gw; ++j) {
      if (instance.nodes[i].min_level[j] != kUnreachable) ++reach_count[i];
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (reach_count[a] != reach_count[b]) {
      return reach_count[a] < reach_count[b];
    }
    return instance.nodes[a].traffic > instance.nodes[b].traffic;
  });

  for (const std::size_t i : order) {
    const auto& node = instance.nodes[i];
    double best_score = 1e300;
    int best_gw = -1;
    int best_level = 0;
    int best_channel = 0;
    for (std::size_t j = 0; j < num_gw; ++j) {
      if (node.min_level[j] == kUnreachable) continue;
      const auto& gw = instance.gateways[j];
      const double load_frac =
          (gw_load[j] + node.traffic) / static_cast<double>(gw.decoders);
      for (int level = node.min_level[j]; level < kNumLevels; ++level) {
        const int dr = dr_value(level_to_dr(level));
        for (const auto ch : solution.gateway_channels[j]) {
          const double pl =
              pair_load[static_cast<std::size_t>(ch) * kNumDataRates + dr];
          const double cap =
              instance.pair_capacity[static_cast<std::size_t>(dr)];
          const double pair_over = std::max(0.0, pl + node.traffic - cap);
          // Prefer: no RF-pair overload, then lightly loaded gateways,
          // then short levels (low power), then lightly used pairs.
          const double score = pair_over * 100.0 +
                               std::max(0.0, load_frac - 1.0) * 50.0 +
                               load_frac + 0.02 * level + 0.001 * pl;
          if (score < best_score) {
            best_score = score;
            best_gw = static_cast<int>(j);
            best_level = level;
            best_channel = ch;
          }
        }
      }
    }
    if (best_gw < 0) {
      // Unreachable node: leave defaults (channel 0, level max for reach).
      solution.node_channel[i] = 0;
      solution.node_level[i] = kNumLevels - 1;
      continue;
    }
    solution.node_channel[i] = best_channel;
    solution.node_level[i] = best_level;
    gw_load[static_cast<std::size_t>(best_gw)] += node.traffic;
    pair_load[static_cast<std::size_t>(best_channel) * kNumDataRates +
              dr_value(level_to_dr(best_level))] += node.traffic;
  }

  repair(instance, solution);
  return solution;
}

}  // namespace alphawan
