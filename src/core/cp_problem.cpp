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

void repair_gateways(const CpInstance& instance, CpSolution& solution) {
  solution.gateway_channels.resize(instance.gateways.size());
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
}

void repair(const CpInstance& instance, CpSolution& solution) {
  repair_gateways(instance, solution);
  solution.node_channel.resize(instance.nodes.size(), 0);
  solution.node_level.resize(instance.nodes.size(), 0);
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
      // At least one word, so that even a gateway-less instance has
      // (empty) sets to read.
      words_(std::max<std::size_t>(
          1, (instance.gateways.size() + kWordBits - 1) / kWordBits)),
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

CpEvaluation CpScorer::score(const CpSolution& solution) const {
  Scratch scratch;
  CpEvaluation eval;
  score(solution, scratch, eval);
  return eval;
}

void CpScorer::score(const CpSolution& solution, Scratch& scratch,
                     CpEvaluation& out) const {
  assert(feasible(instance_, solution));
  // Up to 63 gateways fit one word with a spare bit above them.
  if (instance_.gateways.size() < kWordBits) {
    score_words<1>(solution, scratch, out);
  } else {
    score_words<0>(solution, scratch, out);
  }
}

namespace {

// `v` where `mask` is all ones, +0.0 where it is zero.
double keep_if(double v, std::uint64_t mask) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & mask);
}

}  // namespace

template <std::size_t Words>
void CpScorer::score_words(const CpSolution& solution, Scratch& scratch,
                           CpEvaluation& eval) const {
  const std::size_t words = Words != 0 ? Words : words_;
  const std::size_t num_gw = instance_.gateways.size();
  const std::size_t num_nodes = traffic_.size();
  const auto num_channels = static_cast<std::size_t>(instance_.num_channels);
  const double* traffic = traffic_.data();
  const std::int32_t* node_channel = solution.node_channel.data();
  const std::int32_t* node_level = solution.node_level.data();

  // Gateways listening on each grid channel.
  std::vector<std::uint64_t>& listening = scratch.listening;
  listening.assign(num_channels * words, 0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    for (const auto c : solution.gateway_channels[j]) {
      listening[static_cast<std::size_t>(c) * words + j / kWordBits] |=
          1ULL << (j % kWordBits);
    }
  }
  // Word w of node i's serving set: the gateways that reach it at its
  // level and listen on its channel. Both passes recompute it.
  auto serving = [&](std::size_t i, std::size_t w) {
    const auto level = static_cast<std::size_t>(node_level[i]);
    const auto ch = static_cast<std::size_t>(node_channel[i]);
    return reach_[(i * kNumLevels + level) * words + w] &
           listening[ch * words + w];
  };
  // In one word, gateway index num_gw is a spare slot: `set | spare` is
  // never empty, and its lowest bit is the node's first serving gateway
  // or, for a node nobody serves, the spare. Most nodes have at most one
  // serving gateway, so handling the lowest bit unconditionally leaves
  // the bit loops a branch that is almost never taken.
  const std::uint64_t spare = Words == 1 ? 1ULL << (num_gw % kWordBits) : 0;

  // Pass 1: gateway loads k_j and per-(channel, dr) pair loads. Each
  // gateway still gains its nodes' traffic in node order; the spare
  // slot's sum is dropped.
  eval.gateway_load.assign(num_gw + 1, 0.0);
  double* load = eval.gateway_load.data();
  auto add = [load](std::uint64_t set, std::size_t base, double t) {
    for (; set != 0; set &= set - 1) {
      load[base + static_cast<std::size_t>(std::countr_zero(set))] += t;
    }
  };
  std::vector<double>& pair_load = scratch.pair_load;
  pair_load.assign(num_channels * kNumDataRates, 0.0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const double t = traffic[i];
    if constexpr (Words == 1) {
      const std::uint64_t set = serving(i, 0);
      load[static_cast<std::size_t>(std::countr_zero(set | spare))] += t;
      add(set & (set - 1), 0, t);
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        add(serving(i, w), w * kWordBits, t);
      }
    }
    const int dr = dr_value(level_to_dr(node_level[i]));
    pair_load[static_cast<std::size_t>(node_channel[i]) * kNumDataRates +
              static_cast<std::size_t>(dr)] += t;
  }
  eval.gateway_load.pop_back();

  // Gateway overload phi_j, normalized to the expected FRACTION of this
  // gateway's packets lost to decoder exhaustion: (k_j - C_j) / k_j.
  // (The paper uses the raw overshoot k_j - C_j; normalizing makes the
  // risk commensurable with the certain losses of disconnection and RF
  // pair collisions, which matters once demand exceeds total capacity.)
  // The spare slot holds -1, the "no serving gateway" value.
  std::vector<double>& phi = scratch.phi;
  phi.resize(num_gw + 1);
  for (std::size_t j = 0; j < num_gw; ++j) {
    const double k = load[j];
    const double c = static_cast<double>(instance_.gateways[j].decoders);
    phi[j] = k > c ? (k - c) / k : 0.0;
  }
  phi[num_gw] = -1.0;
  // The node risk Phi_i folds phi over the serving set in gateway order,
  // starting from -1: a node nobody serves ends at -1.
  auto fold = [&phi](double best, std::uint64_t set, std::size_t base) {
    for (; set != 0; set &= set - 1) {
      const double p =
          phi[base + static_cast<std::size_t>(std::countr_zero(set))];
      if (best < 0.0 || p < best) best = p;
    }
    return best;
  };
  // With few gateways, fold every possible one-word serving set once:
  // min_phi[S] is the fold over S, built as one more fold step (on S's
  // highest gateway, the last one the fold visits) from S without it.
  // When the table costs no more entries than there are nodes, pass 2
  // reads each node's Phi_i with one load.
  std::vector<double>& min_phi = scratch.min_phi;
  const bool by_table = Words == 1 && (std::size_t{1} << num_gw) <= num_nodes;
  if (by_table) {
    min_phi.resize(std::size_t{1} << num_gw);
    min_phi[0] = -1.0;
    for (std::size_t set = 1; set < min_phi.size(); ++set) {
      const auto top = static_cast<std::size_t>(std::bit_width(set)) - 1;
      const std::uint64_t top_bit = std::uint64_t{1} << top;
      min_phi[set] = fold(min_phi[set & ~top_bit], top_bit, 0);
    }
  }

  // Pass 2: node risk Phi_i, summed into the risk terms. Every node adds
  // a term to both sums, masked to +0.0 in the one that the old branch
  // skipped, so no branch depends on whether a node is served. That is
  // exact: x + (+0.0) == x bit for bit unless x is -0.0, and each sum
  // starts at +0.0 while a round-to-nearest sum is -0.0 only when both
  // addends are, so no sum here is ever -0.0.
  double overload_risk = 0.0;
  double disconnected = 0.0;
  double level_bias = 0.0;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const double t = traffic[i];
    double best_phi = -1.0;
    if constexpr (Words == 1) {
      const std::uint64_t set = serving(i, 0);
      best_phi = by_table
                     ? min_phi[set]
                     : fold(phi[static_cast<std::size_t>(
                                std::countr_zero(set | spare))],
                            set & (set - 1), 0);
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        best_phi = fold(best_phi, serving(i, w), w * kWordBits);
      }
    }
    const std::uint64_t off = 0 - static_cast<std::uint64_t>(best_phi < 0.0);
    disconnected += keep_if(t, off);
    overload_risk += keep_if(t * best_phi, ~off);
    level_bias += kLevelCost * t * static_cast<double>(node_level[i]);
  }
  eval.overload_risk = overload_risk;
  eval.disconnected = disconnected;
  eval.level_bias = level_bias;
  eval.objective = eval.level_bias;  // == 0.0 + level_bias: not -0.0

  // RF channel contention pressure: load beyond a pair's capacity.
  eval.pair_overload = 0.0;
  for (std::size_t ch = 0; ch < num_channels; ++ch) {
    for (int dr = 0; dr < kNumDataRates; ++dr) {
      const double pair = pair_load[ch * kNumDataRates + dr];
      const double cap = instance_.pair_capacity[static_cast<std::size_t>(dr)];
      if (pair > cap) eval.pair_overload += pair - cap;
    }
  }

  eval.objective += eval.overload_risk +
                    kPairOverloadWeight * eval.pair_overload +
                    kDisconnectPenalty * eval.disconnected;
}

CpEvaluation evaluate(const CpInstance& instance, const CpSolution& solution) {
  return CpScorer(instance).score(solution);
}

}  // namespace alphawan
