#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/traffic.hpp"

namespace alphawan {
namespace {

ChannelModelConfig quiet_channel() {
  // The paper's controlled capacity experiments use stable links (fixed
  // node placements, clear margins); heavy shadowing would conflate
  // decoder contention with RF capture losses.
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{0.3};
  cfg.fast_fading_sigma_db = Db{0.1};
  return cfg;
}

// A compact single-network deployment: one central gateway, nodes nearby.
struct Fixture {
  Deployment deployment{Region{Meters{800.0}, Meters{800.0}}, spectrum_1m6(), quiet_channel()};
  Network* network = nullptr;
  PacketIdSource ids;
  Rng rng{101};

  Fixture() {
    network = &deployment.add_network("op");
    auto& gw = network->add_gateway(deployment.next_gateway_id(),
                                    deployment.region().center(),
                                    default_profile());
    gw.apply_channels(GatewayChannelConfig{
        standard_plan(deployment.spectrum(), 0).channels});
  }

  EndNode& add_node(int channel, DataRate dr, Point pos) {
    NodeRadioConfig cfg;
    cfg.channel = deployment.spectrum().grid_channel(channel);
    cfg.dr = dr;
    cfg.tx_power = Dbm{14.0};
    return network->add_node(deployment.next_node_id(), pos, cfg);
  }
};

TEST(Scenario, SinglePacketDelivered) {
  Fixture f;
  auto& node = f.add_node(0, DataRate::kDR3, Point{Meters{420}, Meters{400}});
  ScenarioRunner runner(f.deployment);
  const auto result =
      runner.run_window({node.make_transmission(Seconds{0.0}, 10, f.ids.next())});
  EXPECT_EQ(result.total_delivered(), 1u);
  EXPECT_TRUE(result.fates[0].delivered);
  EXPECT_EQ(f.network->server().delivered_packets(), 1u);
}

TEST(Scenario, ConservationOfferedEqualsDeliveredPlusLost) {
  Fixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 30; ++i) {
    nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i % 6),
                                Point{Meters{400.0 + (i % 6) * 30.0},
                                      Meters{380.0 + (i / 6) * 25.0}}));
  }
  ScenarioRunner runner(f.deployment);
  MetricsCollector metrics;
  const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
  const auto result = runner.run_window(txs, metrics);
  EXPECT_EQ(result.total_offered(), 30u);
  std::size_t losses = 0;
  for (auto cause :
       {LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
        LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
        LossCause::kOther}) {
    losses += static_cast<std::size_t>(
        metrics.loss_fraction(cause) * static_cast<double>(result.total_offered()) + 0.5);
  }
  EXPECT_EQ(result.total_delivered() + losses, 30u);
}

TEST(Scenario, SixteenDecoderCeilingEndToEnd) {
  // 48 orthogonal concurrent users, 1 gateway: exactly 16 delivered.
  Fixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 48; ++i) {
    nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i / 8),
                                Point{Meters{350.0 + (i % 8) * 20.0},
                                      Meters{360.0 + (i / 8) * 15.0}}));
  }
  ScenarioRunner runner(f.deployment);
  // Stagger lock-ons so dispatch order is defined.
  const auto txs = staggered_by_lock_on(nodes, Seconds{0.0}, Seconds{0.0005}, f.ids);
  const auto result = runner.run_window(txs);
  EXPECT_EQ(result.total_delivered(), 16u);
}

TEST(Scenario, OutOfRangeNodeGetsOtherLoss) {
  Fixture f;
  // Far outside the region (the deployment only covers 800 m).
  auto& node = f.add_node(0, DataRate::kDR5, Point{Meters{0}, Meters{0}});
  NodeRadioConfig cfg = node.config();
  cfg.tx_power = Dbm{2.0};  // minimal power, SF7 from a corner: unreachable
  node.apply_config(cfg);
  ScenarioRunner runner(f.deployment);
  const auto result =
      runner.run_window({node.make_transmission(Seconds{0.0}, 10, f.ids.next())});
  // Either not detected at all (kOther) or, rarely, delivered if fading
  // smiles; with 2 dBm at ~570 m and SF7 it must fail.
  EXPECT_EQ(result.total_delivered(), 0u);
  EXPECT_EQ(result.fates[0].cause, LossCause::kOther);
}

TEST(Scenario, MetricsOverloadMatchesWindowResult) {
  Fixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 20; ++i) {
    nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i % 6),
                                Point{Meters{400.0 + i * 5.0}, Meters{400.0}}));
  }
  ScenarioRunner runner(f.deployment);
  MetricsCollector metrics;
  const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
  const auto result = runner.run_window(txs, metrics);
  EXPECT_EQ(metrics.total_offered(), result.total_offered());
  EXPECT_EQ(metrics.total_delivered(), result.total_delivered());
}

TEST(Scenario, RepeatedWindowsAccumulateServerState) {
  Fixture f;
  auto& node = f.add_node(2, DataRate::kDR2, Point{Meters{420}, Meters{380}});
  ScenarioRunner runner(f.deployment);
  (void)runner.run_window({node.make_transmission(Seconds{0.0}, 10, f.ids.next())});
  (void)runner.run_window({node.make_transmission(Seconds{100.0}, 10, f.ids.next())});
  EXPECT_EQ(f.network->server().delivered_packets(), 2u);
  EXPECT_EQ(f.network->server().link_profiles().at(node.id()).uplinks, 2u);
}

TEST(Scenario, DeterministicUnderSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Fixture f;
    std::vector<EndNode*> nodes;
    for (int i = 0; i < 25; ++i) {
      nodes.push_back(&f.add_node(i % 8, static_cast<DataRate>(i % 6),
                                  Point{Meters{300.0 + i * 10.0}, Meters{500.0}}));
    }
    ScenarioRunner runner(f.deployment, seed);
    const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
    return runner.run_window(txs).total_delivered();
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

// Bad configuration fails when the runner is built (or reconfigured), with
// the offending field named, instead of being clamped inside a window.
void expect_rejected(const RunOptions& bad, const std::string& field) {
  Fixture f;
  try {
    ScenarioRunner runner(f.deployment, 7, bad);
    ADD_FAILURE() << "constructor accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
  ScenarioRunner runner(f.deployment);
  EXPECT_THROW(runner.set_options(bad), std::invalid_argument);
  EXPECT_EQ(runner.options().threads, 0);  // the rejected value never lands
  EXPECT_EQ(runner.options().prune_margin, Db{25.0});
}

TEST(ScenarioOptions, NegativeThreadsRejected) {
  expect_rejected(RunOptions{.threads = -1}, "threads");
}

TEST(ScenarioOptions, NegativeShardsRejected) {
  expect_rejected(RunOptions{.shards = -2}, "shards");
}

TEST(ScenarioOptions, NegativePruneMarginRejected) {
  expect_rejected(RunOptions{.prune_margin = Db{-1.0}}, "prune_margin");
}

TEST(ScenarioOptions, NanPruneMarginRejected) {
  expect_rejected(
      RunOptions{.prune_margin = Db{std::numeric_limits<double>::quiet_NaN()}},
      "prune_margin");
}

TEST(ScenarioOptions, InfinitePruneMarginRejected) {
  expect_rejected(
      RunOptions{.prune_margin = Db{std::numeric_limits<double>::infinity()}},
      "prune_margin");
}

TEST(ScenarioOptions, ZeroDefaultsAccepted) {
  Fixture f;
  ScenarioRunner runner(f.deployment, 7,
                        RunOptions{.prune_margin = Db{0.0}, .threads = 0,
                                   .shards = 0});
  EXPECT_NO_THROW(runner.set_options(RunOptions{}));
}

}  // namespace
}  // namespace alphawan
