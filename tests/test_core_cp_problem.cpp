#include "core/cp_problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/rng.hpp"

namespace alphawan {
namespace {

// Instance: 2 gateways (4 decoders each), 8 channels, 6 nodes.
CpInstance small_instance() {
  CpInstance inst;
  inst.spectrum = Spectrum{Hz{923.2e6}, Hz{1.6e6}};
  inst.num_channels = 8;
  inst.gateways = {{1, 4, 8, 8}, {2, 4, 8, 8}};
  for (int i = 0; i < 6; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(100 + i);
    node.traffic = 1.0;
    node.min_level = {0, 0};  // reaches both gateways at any level
    inst.nodes.push_back(node);
  }
  return inst;
}

CpSolution trivial_solution(const CpInstance& inst) {
  CpSolution s = CpSolution::empty_for(inst);
  for (auto& chans : s.gateway_channels) chans = {0, 1, 2, 3};
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] = static_cast<std::int32_t>(i % 4);
    s.node_level[i] = static_cast<std::int32_t>(i % kNumLevels);
  }
  return s;
}

TEST(CpProblem, ValidInstance) {
  EXPECT_TRUE(small_instance().valid());
  CpInstance bad = small_instance();
  bad.nodes[0].min_level.pop_back();
  EXPECT_FALSE(bad.valid());
  CpInstance no_gw = small_instance();
  no_gw.gateways.clear();
  EXPECT_FALSE(no_gw.valid());
}

TEST(CpProblem, FeasibleAcceptsValidSolution) {
  const auto inst = small_instance();
  EXPECT_TRUE(feasible(inst, trivial_solution(inst)));
}

TEST(CpProblem, FeasibleRejectsViolations) {
  const auto inst = small_instance();
  auto too_many = trivial_solution(inst);
  too_many.gateway_channels[0] = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_TRUE(feasible(inst, too_many));  // 8 channels allowed
  CpInstance narrow = inst;
  narrow.gateways[0].max_channels = 2;
  EXPECT_FALSE(feasible(narrow, too_many));

  auto out_of_range = trivial_solution(inst);
  out_of_range.node_channel[0] = 99;
  EXPECT_FALSE(feasible(inst, out_of_range));

  auto unsorted = trivial_solution(inst);
  unsorted.gateway_channels[0] = {3, 1};
  EXPECT_FALSE(feasible(inst, unsorted));

  auto duplicate = trivial_solution(inst);
  duplicate.gateway_channels[0] = {1, 1};
  EXPECT_FALSE(feasible(inst, duplicate));

  auto bad_level = trivial_solution(inst);
  bad_level.node_level[0] = 6;
  EXPECT_FALSE(feasible(inst, bad_level));
}

TEST(CpProblem, SpanConstraint) {
  CpInstance inst = small_instance();
  inst.num_channels = 24;
  inst.gateways[0].max_span_channels = 8;
  auto s = trivial_solution(inst);
  s.gateway_channels[0] = {0, 10};  // span 11 > 8
  EXPECT_FALSE(feasible(inst, s));
  s.gateway_channels[0] = {0, 7};
  EXPECT_TRUE(feasible(inst, s));
}

TEST(CpProblem, RepairProducesFeasible) {
  Rng rng(3);
  CpInstance inst = small_instance();
  inst.num_channels = 24;
  for (int trial = 0; trial < 200; ++trial) {
    CpSolution s = CpSolution::empty_for(inst);
    for (auto& chans : s.gateway_channels) {
      const int n = static_cast<int>(rng.uniform_int(0, 12));
      for (int k = 0; k < n; ++k) {
        chans.push_back(static_cast<std::int32_t>(rng.uniform_int(-5, 30)));
      }
    }
    for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
      s.node_channel[i] = static_cast<std::int32_t>(rng.uniform_int(-5, 30));
      s.node_level[i] = static_cast<std::int32_t>(rng.uniform_int(-2, 9));
    }
    repair(inst, s);
    EXPECT_TRUE(feasible(inst, s)) << "trial " << trial;
  }
}

TEST(CpProblem, EvaluateZeroWithDisjointGatewayChannels) {
  // With disjoint gateway channel sets no packet is double-counted:
  // gw1 {0..3} serves 4 nodes, gw2 {4..7} serves 2 -> no overload.
  const auto inst = small_instance();
  CpSolution s = CpSolution::empty_for(inst);
  s.gateway_channels[0] = {0, 1, 2, 3};
  s.gateway_channels[1] = {4, 5, 6, 7};
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] = static_cast<std::int32_t>(i);
    s.node_level[i] = static_cast<std::int32_t>(i % kNumLevels);
  }
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.overload_risk, 0.0);
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
  EXPECT_DOUBLE_EQ(eval.pair_overload, 0.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 4.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[1], 2.0);
}

TEST(CpProblem, OverlappingCoverageDoubleCountsLoad) {
  // Both gateways operate channels 0-3 and every node reaches both: each
  // packet contends at BOTH gateways (the paper's one-to-many reception),
  // so k_j = 6 > C_j = 4 and every node carries risk phi = 2.
  const auto inst = small_instance();
  const auto s = trivial_solution(inst);
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 6.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[1], 6.0);
  EXPECT_DOUBLE_EQ(eval.overload_risk, 6.0 * (2.0 / 6.0));
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
}

TEST(CpProblem, EvaluateDetectsOverload) {
  CpInstance inst = small_instance();
  inst.gateways = {{1, 2, 8, 8}};  // one gateway, 2 decoders
  for (auto& node : inst.nodes) node.min_level = {0};
  CpSolution s = CpSolution::empty_for(inst);
  s.gateway_channels[0] = {0};
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] = 0;
    s.node_level[i] = static_cast<std::int32_t>(i % kNumLevels);
  }
  const auto eval = evaluate(inst, s);
  // k = 6 vs C = 2 -> phi = 4/6 expected loss fraction per packet.
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 6.0);
  EXPECT_DOUBLE_EQ(eval.overload_risk, 6.0 * (4.0 / 6.0));
}

TEST(CpProblem, EvaluateDetectsDisconnection) {
  CpInstance inst = small_instance();
  CpSolution s = trivial_solution(inst);
  // Put node 0 on a channel no gateway operates.
  s.node_channel[0] = 7;
  for (auto& chans : s.gateway_channels) chans = {0, 1, 2, 3};
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.disconnected, 1.0);
  EXPECT_GT(eval.objective, 1.0);  // certain-loss penalty applied
}

TEST(CpProblem, EvaluateDetectsPairOverload) {
  CpInstance inst = small_instance();
  CpSolution s = trivial_solution(inst);
  // Two nodes on the same (channel, level): RF contention.
  s.node_channel[0] = s.node_channel[1] = 0;
  s.node_level[0] = s.node_level[1] = 0;
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.pair_overload, 1.0);
}

TEST(CpProblem, UnreachableLevelBlocksLink) {
  CpInstance inst = small_instance();
  // Node 0 reaches gateway 1 only at level >= 3.
  inst.nodes[0].min_level = {3, kUnreachable};
  CpSolution s = trivial_solution(inst);
  s.node_channel[0] = 0;
  s.node_level[0] = 2;  // below the min level: disconnected
  auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.disconnected, 1.0);
  s.node_level[0] = 3;
  eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
}

// Reference oracle: the straightforward two-pass scoring loop that
// CpScorer replaced, kept verbatim (including its 64-channel mask) so the
// differential test below pins the scorer to it bit for bit.
CpEvaluation reference_evaluate(const CpInstance& instance,
                                const CpSolution& solution) {
  CpEvaluation eval;
  const std::size_t num_gw = instance.gateways.size();
  const std::size_t num_nodes = instance.nodes.size();

  std::vector<std::uint64_t> gw_mask(num_gw, 0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    for (const auto c : solution.gateway_channels[j]) {
      if (c < 64) gw_mask[j] |= (1ULL << c);
    }
  }

  eval.gateway_load.assign(num_gw, 0.0);
  std::vector<double> pair_load(
      static_cast<std::size_t>(instance.num_channels) * kNumDataRates, 0.0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const auto& node = instance.nodes[i];
    const int ch = solution.node_channel[i];
    const int level = solution.node_level[i];
    const std::uint64_t bit = ch < 64 ? (1ULL << ch) : 0;
    for (std::size_t j = 0; j < num_gw; ++j) {
      if (node.min_level[j] <= level && (gw_mask[j] & bit)) {
        eval.gateway_load[j] += node.traffic;
      }
    }
    const int dr = dr_value(level_to_dr(level));
    pair_load[static_cast<std::size_t>(ch) * kNumDataRates + dr] +=
        node.traffic;
  }

  std::vector<double> phi(num_gw, 0.0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    const double k = eval.gateway_load[j];
    const double c = static_cast<double>(instance.gateways[j].decoders);
    phi[j] = k > c ? (k - c) / k : 0.0;
  }

  for (std::size_t i = 0; i < num_nodes; ++i) {
    const auto& node = instance.nodes[i];
    const int ch = solution.node_channel[i];
    const int level = solution.node_level[i];
    const std::uint64_t bit = ch < 64 ? (1ULL << ch) : 0;
    double best_phi = -1.0;
    for (std::size_t j = 0; j < num_gw; ++j) {
      if (node.min_level[j] <= level && (gw_mask[j] & bit)) {
        if (best_phi < 0.0 || phi[j] < best_phi) best_phi = phi[j];
      }
    }
    if (best_phi < 0.0) {
      eval.disconnected += node.traffic;
    } else {
      eval.overload_risk += node.traffic * best_phi;
    }
    eval.level_bias += kLevelCost * node.traffic *
                       static_cast<double>(level);
  }
  eval.objective += eval.level_bias;

  for (int ch = 0; ch < instance.num_channels; ++ch) {
    for (int dr = 0; dr < kNumDataRates; ++dr) {
      const double load =
          pair_load[static_cast<std::size_t>(ch) * kNumDataRates + dr];
      const double cap = instance.pair_capacity[static_cast<std::size_t>(dr)];
      if (load > cap) eval.pair_overload += load - cap;
    }
  }

  eval.objective += eval.overload_risk +
                    kPairOverloadWeight * eval.pair_overload +
                    kDisconnectPenalty * eval.disconnected;
  return eval;
}

// Random instance for the differential test. Gateway counts cycle through
// the bitset-word seams (1, 63, 64, 65, 130 gateways) before going random;
// links are unreachable with probability ~1/4 and some nodes carry no
// traffic. Channel grids stay within the oracle's 64-channel mask.
CpInstance random_instance(Rng& rng, int trial) {
  static constexpr int kSeamGateways[] = {1, 63, 64, 65, 130};
  CpInstance inst;
  inst.num_channels = static_cast<int>(rng.uniform_int(1, 64));
  inst.spectrum = Spectrum{Hz{902.0e6}, inst.num_channels * kChannelSpacing};
  const int num_gw = trial < 50 ? kSeamGateways[trial % 5]
                                : static_cast<int>(rng.uniform_int(1, 140));
  for (int j = 0; j < num_gw; ++j) {
    CpGateway gw;
    gw.id = static_cast<GatewayId>(j + 1);
    gw.decoders = static_cast<int>(rng.uniform_int(0, 24));
    gw.max_channels = static_cast<int>(rng.uniform_int(1, 8));
    gw.max_span_channels = static_cast<int>(rng.uniform_int(1, 16));
    inst.gateways.push_back(gw);
  }
  const int num_nodes = static_cast<int>(rng.uniform_int(1, 160));
  for (int i = 0; i < num_nodes; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(i + 1);
    node.traffic = rng.chance(0.1) ? 0.0 : rng.uniform(0.05, 4.0);
    node.min_level.resize(static_cast<std::size_t>(num_gw));
    for (auto& level : node.min_level) {
      const auto roll = rng.uniform_int(0, 7);
      level = roll >= 6 ? kUnreachable : static_cast<std::uint8_t>(roll);
    }
    inst.nodes.push_back(std::move(node));
  }
  for (auto& cap : inst.pair_capacity) cap = rng.uniform(0.5, 6.0);
  return inst;
}

// A repaired random plan. Half of the nodes pick a channel some gateway
// listens on, so serving sets are rarely empty.
CpSolution random_solution(const CpInstance& inst, Rng& rng) {
  CpSolution s = CpSolution::empty_for(inst);
  for (auto& chans : s.gateway_channels) {
    const auto start = rng.uniform_int(0, inst.num_channels - 1);
    const auto width = rng.uniform_int(1, 8);
    for (std::int64_t c = start; c < start + width; ++c) {
      chans.push_back(static_cast<std::int32_t>(c));
    }
  }
  repair(inst, s);
  const auto last = static_cast<std::int64_t>(inst.gateways.size()) - 1;
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    const auto& chans =
        s.gateway_channels[static_cast<std::size_t>(rng.uniform_int(0, last))];
    s.node_channel[i] =
        rng.chance(0.5)
            ? chans[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(chans.size()) - 1))]
            : static_cast<std::int32_t>(
                  rng.uniform_int(0, inst.num_channels - 1));
    s.node_level[i] =
        static_cast<std::int32_t>(rng.uniform_int(0, kNumLevels - 1));
  }
  return s;
}

// The bit pattern of a double: unlike ==, it tells -0.0 from +0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every field, including each gateway_load entry, compared bit for bit.
void expect_same_bits(const CpEvaluation& got, const CpEvaluation& want) {
  EXPECT_EQ(bits(got.objective), bits(want.objective));
  EXPECT_EQ(bits(got.overload_risk), bits(want.overload_risk));
  EXPECT_EQ(bits(got.pair_overload), bits(want.pair_overload));
  EXPECT_EQ(bits(got.disconnected), bits(want.disconnected));
  EXPECT_EQ(bits(got.level_bias), bits(want.level_bias));
  ASSERT_EQ(got.gateway_load.size(), want.gateway_load.size());
  for (std::size_t j = 0; j < want.gateway_load.size(); ++j) {
    EXPECT_EQ(bits(got.gateway_load[j]), bits(want.gateway_load[j]))
        << "gateway " << j;
  }
}

// One scorer per instance scores several plans; every field must carry the
// reference loop's exact bits. Trials 240-269 make every node unreachable
// (all traffic disconnected, no load anywhere) and trials 270-299 zero all
// traffic, so a rewrite that adds where the reference skips, or flips the
// sign of a zero, fails here.
// Each plan is also scored through one Scratch and one CpEvaluation
// reused across every plan and instance, so no buffer may leak state
// from one call into the next.
TEST(CpScorer, MatchesReferenceLoopBitForBit) {
  Rng rng(2024);
  CpScorer::Scratch scratch;
  CpEvaluation reused;
  for (int trial = 0; trial < 300; ++trial) {
    CpInstance inst = random_instance(rng, trial);
    if (trial >= 240 && trial < 270) {
      for (auto& node : inst.nodes) {
        std::fill(node.min_level.begin(), node.min_level.end(), kUnreachable);
      }
    } else if (trial >= 270) {
      for (auto& node : inst.nodes) node.traffic = 0.0;
    }
    const CpScorer scorer(inst);
    for (int plan = 0; plan < 3; ++plan) {
      const CpSolution s = random_solution(inst, rng);
      ASSERT_TRUE(feasible(inst, s));
      const CpEvaluation want = reference_evaluate(inst, s);
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " plan " << plan << ", "
                   << inst.gateways.size() << " gateways");
      expect_same_bits(scorer.score(s), want);
      expect_same_bits(evaluate(inst, s), want);
      scorer.score(s, scratch, reused);
      expect_same_bits(reused, want);
    }
  }
}

// Grid channels past 63 are served like any other: a gateway listening on
// channel 70 of an 80-channel grid carries the node placed there.
TEST(CpScorer, ServesChannelsBeyond64) {
  CpInstance inst;
  inst.num_channels = 80;
  inst.spectrum = Spectrum{Hz{902.0e6}, inst.num_channels * kChannelSpacing};
  inst.gateways = {{1, 4, 8, 8}, {2, 4, 8, 8}};
  for (int i = 0; i < 3; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(i + 1);
    node.min_level = {0, 0};
    inst.nodes.push_back(node);
  }
  CpSolution s = CpSolution::empty_for(inst);
  s.gateway_channels[0] = {66, 67, 68, 69, 70, 71, 72, 73};
  s.gateway_channels[1] = {0, 1, 2, 3};
  s.node_channel = {70, 73, 79};  // 79: nobody listens there
  s.node_level = {0, 1, 2};
  ASSERT_TRUE(feasible(inst, s));
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 2.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[1], 0.0);
  EXPECT_DOUBLE_EQ(eval.disconnected, 1.0);
  EXPECT_DOUBLE_EQ(eval.overload_risk, 0.0);
}

TEST(CpProblem, LevelDrMapping) {
  EXPECT_EQ(level_to_dr(0), DataRate::kDR5);
  EXPECT_EQ(level_to_dr(5), DataRate::kDR0);
  for (int l = 0; l < kNumLevels; ++l) {
    EXPECT_EQ(dr_to_level(level_to_dr(l)), l);
  }
}

}  // namespace
}  // namespace alphawan
