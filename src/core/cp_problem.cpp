#include "core/cp_problem.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace alphawan {

bool CpInstance::valid() const {
  if (num_channels <= 0 || gateways.empty()) return false;
  for (const auto& node : nodes) {
    if (node.min_level.size() != gateways.size()) return false;
  }
  return pair_capacity.size() == static_cast<std::size_t>(kNumDataRates);
}

double CpInstance::total_decoders() const {
  double total = 0.0;
  for (const auto& gw : gateways) total += gw.decoders;
  return total;
}

double CpInstance::total_traffic() const {
  double total = 0.0;
  for (const auto& node : nodes) total += node.traffic;
  return total;
}

CpSolution CpSolution::empty_for(const CpInstance& instance) {
  CpSolution s;
  s.gateway_channels.resize(instance.gateways.size());
  s.node_channel.assign(instance.nodes.size(), 0);
  s.node_level.assign(instance.nodes.size(), 0);
  return s;
}

bool feasible(const CpInstance& instance, const CpSolution& solution) {
  if (solution.gateway_channels.size() != instance.gateways.size() ||
      solution.node_channel.size() != instance.nodes.size() ||
      solution.node_level.size() != instance.nodes.size()) {
    return false;
  }
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    const auto& chans = solution.gateway_channels[j];
    const auto& gw = instance.gateways[j];
    if (chans.empty() ||
        static_cast<int>(chans.size()) > gw.max_channels) {
      return false;
    }
    if (!std::is_sorted(chans.begin(), chans.end())) return false;
    if (std::adjacent_find(chans.begin(), chans.end()) != chans.end()) {
      return false;
    }
    if (chans.front() < 0 || chans.back() >= instance.num_channels) {
      return false;
    }
    if (chans.back() - chans.front() + 1 > gw.max_span_channels) return false;
  }
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    if (solution.node_channel[i] < 0 ||
        solution.node_channel[i] >= instance.num_channels) {
      return false;
    }
    if (solution.node_level[i] < 0 || solution.node_level[i] >= kNumLevels) {
      return false;
    }
  }
  return true;
}

void repair(const CpInstance& instance, CpSolution& solution) {
  solution.gateway_channels.resize(instance.gateways.size());
  solution.node_channel.resize(instance.nodes.size(), 0);
  solution.node_level.resize(instance.nodes.size(), 0);
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    auto& chans = solution.gateway_channels[j];
    const auto& gw = instance.gateways[j];
    for (auto& c : chans) {
      c = std::clamp(c, 0, instance.num_channels - 1);
    }
    std::sort(chans.begin(), chans.end());
    chans.erase(std::unique(chans.begin(), chans.end()), chans.end());
    if (chans.empty()) chans.push_back(0);
    // Enforce the bandwidth span: keep the densest window of allowed span.
    const int span = gw.max_span_channels;
    if (chans.back() - chans.front() + 1 > span) {
      std::size_t best_begin = 0;
      std::size_t best_count = 0;
      std::size_t begin = 0;
      for (std::size_t end = 0; end < chans.size(); ++end) {
        while (chans[end] - chans[begin] + 1 > span) ++begin;
        if (end - begin + 1 > best_count) {
          best_count = end - begin + 1;
          best_begin = begin;
        }
      }
      std::vector<std::int32_t> kept(
          chans.begin() + static_cast<std::ptrdiff_t>(best_begin),
          chans.begin() + static_cast<std::ptrdiff_t>(best_begin + best_count));
      chans = std::move(kept);
    }
    // Enforce the channel-count cap.
    if (static_cast<int>(chans.size()) > gw.max_channels) {
      chans.resize(static_cast<std::size_t>(gw.max_channels));
    }
  }
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    solution.node_channel[i] =
        std::clamp(solution.node_channel[i], 0, instance.num_channels - 1);
    solution.node_level[i] =
        std::clamp(solution.node_level[i], 0, kNumLevels - 1);
  }
}

namespace {

constexpr std::size_t kWordBits = 64;

}  // namespace

CpScorer::CpScorer(const CpInstance& instance)
    : instance_(instance),
      words_((instance.gateways.size() + kWordBits - 1) / kWordBits),
      reach_(instance.nodes.size() * kNumLevels * words_, 0),
      traffic_(instance.nodes.size()) {
  const std::size_t num_gw = instance.gateways.size();
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    const auto& node = instance.nodes[i];
    assert(node.min_level.size() == num_gw);
    traffic_[i] = node.traffic;
    std::uint64_t* levels = &reach_[i * kNumLevels * words_];
    for (std::size_t j = 0; j < num_gw; ++j) {
      // Reachability is monotone in the level; kUnreachable sets no bit.
      for (int level = node.min_level[j]; level < kNumLevels; ++level) {
        levels[static_cast<std::size_t>(level) * words_ + j / kWordBits] |=
            1ULL << (j % kWordBits);
      }
    }
  }
}

CpEvaluation CpScorer::score(const CpSolution& solution,
                             const CpWeights& weights) const {
  assert(feasible(instance_, solution));
  CpEvaluation eval;
  const std::size_t num_gw = instance_.gateways.size();
  const std::size_t num_nodes = traffic_.size();
  const std::size_t words = words_;

  // Gateways listening on each grid channel.
  std::vector<std::uint64_t> listening(
      static_cast<std::size_t>(instance_.num_channels) * words, 0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    for (const auto c : solution.gateway_channels[j]) {
      listening[static_cast<std::size_t>(c) * words + j / kWordBits] |=
          1ULL << (j % kWordBits);
    }
  }

  // Pass 1: each node's serving set (gateways that reach it at its level
  // and listen on its channel), gateway loads k_j and per-(channel, dr)
  // pair loads.
  eval.gateway_load.assign(num_gw, 0.0);
  std::vector<double> pair_load(
      static_cast<std::size_t>(instance_.num_channels) * kNumDataRates, 0.0);
  std::vector<std::uint64_t> serving(num_nodes * words);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const double traffic = traffic_[i];
    const auto ch = static_cast<std::size_t>(solution.node_channel[i]);
    const int level = solution.node_level[i];
    const std::uint64_t* reach =
        &reach_[(i * kNumLevels + static_cast<std::size_t>(level)) * words];
    const std::uint64_t* listen = &listening[ch * words];
    std::uint64_t* serve = &serving[i * words];
    for (std::size_t w = 0; w < words; ++w) {
      serve[w] = reach[w] & listen[w];
      for (std::uint64_t set = serve[w]; set != 0; set &= set - 1) {
        eval.gateway_load[w * kWordBits +
                          static_cast<std::size_t>(std::countr_zero(set))] +=
            traffic;
      }
    }
    const int dr = dr_value(level_to_dr(level));
    pair_load[ch * kNumDataRates + static_cast<std::size_t>(dr)] += traffic;
  }

  // Gateway overload phi_j, normalized to the expected FRACTION of this
  // gateway's packets lost to decoder exhaustion: (k_j - C_j) / k_j.
  // (The paper uses the raw overshoot k_j - C_j; normalizing makes the
  // risk commensurable with the certain losses of disconnection and RF
  // pair collisions, which matters once demand exceeds total capacity.)
  std::vector<double> phi(num_gw, 0.0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    const double k = eval.gateway_load[j];
    const double c = static_cast<double>(instance_.gateways[j].decoders);
    phi[j] = k > c ? (k - c) / k : 0.0;
  }

  // Pass 2: node risk Phi_i = min phi over serving gateways.
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const double traffic = traffic_[i];
    const std::uint64_t* serve = &serving[i * words];
    double best_phi = -1.0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t set = serve[w]; set != 0; set &= set - 1) {
        const double p = phi[w * kWordBits +
                             static_cast<std::size_t>(std::countr_zero(set))];
        if (best_phi < 0.0 || p < best_phi) best_phi = p;
      }
    }
    if (best_phi < 0.0) {
      eval.disconnected += traffic;
    } else {
      eval.overload_risk += traffic * best_phi;
    }
    eval.level_bias += weights.level_cost * traffic *
                       static_cast<double>(solution.node_level[i]);
  }
  eval.objective += eval.level_bias;

  // RF channel contention pressure: load beyond a pair's capacity.
  for (int ch = 0; ch < instance_.num_channels; ++ch) {
    for (int dr = 0; dr < kNumDataRates; ++dr) {
      const double load =
          pair_load[static_cast<std::size_t>(ch) * kNumDataRates + dr];
      const double cap = instance_.pair_capacity[static_cast<std::size_t>(dr)];
      if (load > cap) eval.pair_overload += load - cap;
    }
  }

  eval.objective += eval.overload_risk +
                    weights.pair_overload_weight * eval.pair_overload +
                    weights.disconnect_penalty * eval.disconnected;
  return eval;
}

CpEvaluation evaluate(const CpInstance& instance, const CpSolution& solution,
                      const CpWeights& weights) {
  return CpScorer(instance).score(solution, weights);
}

}  // namespace alphawan
