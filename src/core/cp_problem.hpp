// The Channel Planning (CP) optimization problem (paper Sec. 4.3.1).
//
// Input triplet (GW, ND, CH) plus the discrete transmission-distance set
// DR, the coverage relation r_{ijl}, node traffic U, and per-gateway radio
// constants (C_j decoders, P_j max channels, B_j max bandwidth). Decision:
// which grid channels each gateway operates, and which (channel, distance
// level) each node uses. Objective: minimize the total packet-loss risk
// Sum_i Phi_i, where phi_j = max(0, k_j - C_j) is gateway overload and
// Phi_i is the minimum overload among gateways serving node i.
//
// The problem is a knapsack variant (NP-hard); AlphaWAN searches it with
// an evolutionary algorithm seeded by a greedy constructor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "phy/band_plan.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {

// One distance level l corresponds to operating at data rate
// level_to_dr(l): level 0 = DR5 (shortest reach) ... 5 = DR0 (longest).
inline constexpr int kNumLevels = kNumDataRates;

[[nodiscard]] constexpr DataRate level_to_dr(int level) {
  return static_cast<DataRate>(kNumDataRates - 1 - level);
}
[[nodiscard]] constexpr int dr_to_level(DataRate dr) {
  return kNumDataRates - 1 - dr_value(dr);
}

inline constexpr std::uint8_t kUnreachable = 255;

struct CpGateway {
  GatewayId id = kInvalidGateway;
  int decoders = 16;       // C_j
  int max_channels = 8;    // P_j
  int max_span_channels = 8;  // B_j expressed in grid-channel units
};

// The channel count a gateway can operate: `width` clamped to at least 1
// and at most its channel cap P_j, its span B_j and the grid size.
[[nodiscard]] inline int clamp_width(const CpGateway& gw, int num_channels,
                                     int width) {
  return std::clamp(width, 1,
                    std::min({gw.max_channels, gw.max_span_channels,
                              num_channels}));
}

struct CpNode {
  NodeId id = kInvalidNode;
  double traffic = 1.0;  // U_i: expected packets per planning window
  // min_level[j]: smallest distance level at which the node reaches
  // gateway j (kUnreachable if no level works). Reachability is monotone
  // in the level.
  std::vector<std::uint8_t> min_level;
};

struct CpInstance {
  Spectrum spectrum{};
  int num_channels = 0;  // |CH| = spectrum grid size
  std::vector<CpGateway> gateways;
  std::vector<CpNode> nodes;

  // Capacity of one (channel, data-rate) pair in packets per window, used
  // to penalize RF channel contention (users sharing identical settings).
  // For concurrency experiments (one packet per node per window) this is
  // 1.0: one user per channel/SF pair, the oracle assumption.
  std::vector<double> pair_capacity = std::vector<double>(kNumDataRates, 1.0);

  [[nodiscard]] bool valid() const;
};

// A candidate plan. Gateways hold sorted unique grid-channel indices;
// nodes hold a grid channel index and a distance level.
struct CpSolution {
  std::vector<std::vector<std::int32_t>> gateway_channels;
  std::vector<std::int32_t> node_channel;
  std::vector<std::int32_t> node_level;

  [[nodiscard]] static CpSolution empty_for(const CpInstance& instance);
};

// Weights of the penalty terms added to the paper's objective.
// All loss terms are per-packet probabilities/counts, so the weights are
// directly comparable: a disconnected node loses everything (1.2 > any
// overload fraction), and a user squeezed onto a full (channel, DR) pair
// destroys its own packet plus a peer's (~2.5).
inline constexpr double kDisconnectPenalty = 1.2;
inline constexpr double kPairOverloadWeight = 2.5;
// Bias toward fast data rates / low power: faster DRs carry more packets
// per unit airtime, so the planner only slows a user down when contention
// demands it.
inline constexpr double kLevelCost = 0.05;

struct CpEvaluation {
  double objective = 0.0;        // total fitness (lower is better)
  double overload_risk = 0.0;    // Sum_i U_i * Phi_i (paper objective)
  double pair_overload = 0.0;    // RF contention pressure
  double disconnected = 0.0;     // traffic with no serving gateway
  double level_bias = 0.0;       // the tiny low-power tie-break term
  std::vector<double> gateway_load;  // k_j

  // The risk terms alone — zero means a plan with no predicted loss,
  // regardless of the cosmetic level bias.
  [[nodiscard]] double hard_objective() const {
    return objective - level_bias;
  }
};

// Scores solutions of one instance. Construction precomputes everything
// the instance fixes: for every (node, level), the set of gateways the node
// reaches at that level, as a bitset of ceil(gateways / 64) words. Scoring
// a solution then ANDs that reach set with the set of gateways listening
// on the node's channel, so the per-node work is a few word operations
// plus one step per serving gateway. One scoring body serves every word
// count; instances of at most 63 gateways (one word with a spare bit) get
// their own instantiation, without word loops.
//
// Every sum runs in node order and every minimum in gateway order, so
// the result is independent of how the sets are stored. The scorer is
// read-only after construction and keeps its scratch with the caller:
// one scorer may score many solutions concurrently, each call with its
// own Scratch. It refers to the instance, which must outlive it.
class CpScorer {
 public:
  // Buffers score() rebuilds on every call; keeping one per caller lets
  // repeated calls reuse their memory. Never share one between concurrent
  // calls.
  struct Scratch {
    std::vector<std::uint64_t> listening;  // [channel * words + word]
    std::vector<double> pair_load;         // [channel * kNumDataRates + dr]
    std::vector<double> phi;               // [gateway], then -1
    std::vector<double> min_phi;           // [one-word serving set]
  };

  explicit CpScorer(const CpInstance& instance);

  // Infeasible gateway channel sets (too many channels or span too wide)
  // must be repaired before scoring; score() trusts its input (checked in
  // debug builds).
  [[nodiscard]] CpEvaluation score(const CpSolution& solution) const;
  // The same evaluation, written over `out` (reusing its gateway_load)
  // with `scratch` for the per-call buffers.
  void score(const CpSolution& solution, Scratch& scratch,
             CpEvaluation& out) const;

 private:
  // Words = 0: the runtime words_.
  template <std::size_t Words>
  void score_words(const CpSolution& solution, Scratch& scratch,
                   CpEvaluation& eval) const;

  const CpInstance& instance_;
  std::size_t words_;                 // bitset words per gateway set
  std::vector<std::uint64_t> reach_;  // [(node * kNumLevels + level) * words_]
  std::vector<double> traffic_;       // U_i, contiguous
};

// Score one solution with a throwaway CpScorer (see CpScorer::score).
[[nodiscard]] CpEvaluation evaluate(const CpInstance& instance,
                                    const CpSolution& solution);

// Structural feasibility of a solution w.r.t. the instance's constraints
// (gateway channel count/span, channel indices in range, node levels).
[[nodiscard]] bool feasible(const CpInstance& instance,
                            const CpSolution& solution);

// Clamp/repair a solution in place to satisfy structural constraints.
void repair(const CpInstance& instance, CpSolution& solution);

// The gateway half of repair: only the channel sets, node genes untouched.
void repair_gateways(const CpInstance& instance, CpSolution& solution);

}  // namespace alphawan
