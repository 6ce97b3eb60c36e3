#include "core/greedy_seed.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace alphawan {
namespace {

// 15 gateways x 16 decoders, 24 channels, 144 full-reach nodes: the
// Fig. 12a setting (ample decoders for the oracle capacity).
CpInstance fig12_instance(std::size_t num_gw = 15, std::size_t num_nodes = 144) {
  CpInstance inst;
  inst.spectrum = Spectrum{Hz{916.8e6}, Hz{4.8e6}};
  inst.num_channels = 24;
  for (std::size_t j = 0; j < num_gw; ++j) {
    inst.gateways.push_back(
        {static_cast<GatewayId>(j + 1), 16, 8, 8});
  }
  for (std::size_t i = 0; i < num_nodes; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(1000 + i);
    node.traffic = 1.0;
    node.min_level.assign(num_gw, 0);
    inst.nodes.push_back(node);
  }
  return inst;
}

TEST(GreedySeed, ProducesFeasibleSolution) {
  const auto inst = fig12_instance();
  const auto seed = greedy_seed(inst);
  EXPECT_TRUE(feasible(inst, seed));
}

TEST(GreedySeed, DefaultWidthTracksDecoderBudget) {
  // 16 decoders / 6 SFs ~ 3 channels per gateway (Strategy 1).
  const auto inst = fig12_instance();
  const auto seed = greedy_seed(inst);
  for (const auto& chans : seed.gateway_channels) {
    EXPECT_GE(chans.size(), 2u);
    EXPECT_LE(chans.size(), 4u);
  }
}

TEST(GreedySeed, ForcedChannelCountHonored) {
  const auto inst = fig12_instance();
  const auto seed = greedy_seed(inst, /*forced_width=*/8);
  for (const auto& chans : seed.gateway_channels) {
    EXPECT_EQ(chans.size(), 8u);
  }
}

TEST(GreedySeed, CoversAllChannelsWithEnoughGateways) {
  // 15 gateways x ~3 channels should blanket all 24 channels (Strategy 2).
  const auto inst = fig12_instance();
  const auto seed = greedy_seed(inst);
  std::set<std::int32_t> covered;
  for (const auto& chans : seed.gateway_channels) {
    covered.insert(chans.begin(), chans.end());
  }
  EXPECT_EQ(covered.size(), 24u);
}

TEST(GreedySeed, LowRiskWhenCapacitySuffices) {
  const auto inst = fig12_instance();
  const auto eval = evaluate(inst, greedy_seed(inst));
  // 240 decoders vs 144 users with full reach: nobody disconnected, and
  // the residual risk (from multi-gateway double counting) must be small
  // relative to the naive homogeneous plan (every user at risk ~128).
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
  EXPECT_LT(eval.overload_risk, 0.05 * 144.0 * 128.0);
  // A narrower (2-channel) greedy eliminates the double counting fully.
  const auto eval2 = evaluate(inst, greedy_seed(inst, /*forced_width=*/2));
  EXPECT_DOUBLE_EQ(eval2.disconnected, 0.0);
}

TEST(GreedySeed, SpreadsAcrossDataRates) {
  const auto inst = fig12_instance();
  const auto seed = greedy_seed(inst);
  std::set<std::int32_t> levels(seed.node_level.begin(),
                                seed.node_level.end());
  // 144 nodes over 24 channels require all 6 levels in use.
  EXPECT_EQ(levels.size(), static_cast<std::size_t>(kNumLevels));
}

TEST(GreedySeed, RespectsReachability) {
  CpInstance inst = fig12_instance(2, 10);
  // Nodes 0-4 reach only gateway 1; nodes 5-9 only gateway 2.
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    inst.nodes[i].min_level = i < 5
                                  ? std::vector<std::uint8_t>{0, kUnreachable}
                                  : std::vector<std::uint8_t>{kUnreachable, 0};
  }
  const auto seed = greedy_seed(inst);
  const auto eval = evaluate(inst, seed);
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
}

TEST(GreedySeed, HandlesUnreachableNode) {
  CpInstance inst = fig12_instance(1, 2);
  inst.nodes[1].min_level = {kUnreachable};
  const auto seed = greedy_seed(inst);
  EXPECT_TRUE(feasible(inst, seed));
  const auto eval = evaluate(inst, seed);
  EXPECT_DOUBLE_EQ(eval.disconnected, 1.0);  // honestly reported
}

TEST(GreedySeed, HeavyTrafficNodesPlacedFirst) {
  CpInstance inst = fig12_instance(2, 20);
  inst.gateways[0].decoders = 4;
  inst.gateways[1].decoders = 4;
  for (std::size_t i = 0; i < 4; ++i) inst.nodes[i].traffic = 5.0;
  const auto seed = greedy_seed(inst);
  EXPECT_TRUE(feasible(inst, seed));
}

}  // namespace
}  // namespace alphawan
